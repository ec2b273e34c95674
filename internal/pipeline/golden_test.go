package pipeline

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfg/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden Report files")

// goldenInputs enumerates the golden corpus: every example program plus a
// deterministic slice of the Mixed family (the workload the cold-path
// benchmarks run). Each entry is (name, source).
func goldenInputs(t *testing.T) [][2]string {
	t.Helper()
	var out [][2]string

	dir := filepath.Join("..", "..", "examples", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".dfg") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(ent.Name(), ".dfg")
		out = append(out, [2]string{"example-" + name, string(src)})
	}
	if len(out) == 0 {
		t.Fatal("no example programs found")
	}

	for seed := int64(1); seed <= 8; seed++ {
		name := fmt.Sprintf("mixed-15-seed%d", seed)
		out = append(out, [2]string{name, workload.Mixed(15, seed).String()})
	}
	return out
}

// TestGoldenReports pins the observable output of the whole pipeline: every
// golden input runs through all stages cold, and the canonical Report JSON
// must be byte-identical to the checked-in golden. The goldens were
// generated before the dense-structure/EPR-sharing optimizations, so this
// test proves those rewrites change nothing observable. Regenerate with
//
//	go test ./internal/pipeline -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	eng := New(Config{Workers: 1})
	ctx := context.Background()
	for _, in := range goldenInputs(t) {
		name, src := in[0], in[1]
		t.Run(name, func(t *testing.T) {
			res, err := eng.Analyze(ctx, Request{Source: src})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			got, err := json.MarshalIndent(res.Report(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "golden", name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update): %v", path, err)
			}
			if string(got) != string(want) {
				t.Errorf("Report JSON for %s diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}
		})
	}
}
