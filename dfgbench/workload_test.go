package main

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// sequence concatenates every body a plan sends, in order.
func sequence(p *plan) []byte {
	var b bytes.Buffer
	for _, part := range [][]*request{p.Prefill, p.Warmup, p.Timed} {
		for _, r := range part {
			b.Write(r.Body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func mustPlan(t *testing.T, name string, seed int64, seconds int, exclude map[string]bool) *plan {
	t.Helper()
	p, err := buildPlan(name, seed, seconds, exclude)
	if err != nil {
		t.Fatalf("buildPlan(%s, %d): %v", name, seed, err)
	}
	return p
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		a := sequence(mustPlan(t, name, 7, 1, nil))
		b := sequence(mustPlan(t, name, 7, 1, nil))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request sequences", name)
		}
	}
}

func TestDifferentSeedDifferentSequence(t *testing.T) {
	for _, name := range workloadNames {
		a := mustPlan(t, name, 7, 1, nil)
		b := mustPlan(t, name, 8, 1, nil)
		if bytes.Equal(sequence(a), sequence(b)) {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", name)
		}
		// The programs themselves differ, not just their order.
		if a.Compute[0].Source == b.Compute[0].Source {
			t.Errorf("%s: seeds 7 and 8 start with the same program", name)
		}
	}
}

func TestColdMixedProportions(t *testing.T) {
	gs, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, "cold-mixed", 3, 2, goldenSources(gs))
	if len(p.Timed)%coldBlock != 0 {
		t.Fatalf("timed requests %d are not whole blocks of %d", len(p.Timed), coldBlock)
	}
	want := map[string]int{}
	for _, f := range coldFamilies {
		want[f.name] = f.weight
	}
	seen := map[string]bool{}
	for _, g := range gs {
		seen[g.Req.Source] = true
	}
	all := append(append([]*request(nil), p.Warmup...), p.Timed...)
	fam, bc := map[string]int{}, map[string]int{}
	for i := 0; i < len(all); i += coldBlock {
		block := map[string]int{}
		for _, r := range all[i : i+coldBlock] {
			block[r.Family]++
		}
		for f, n := range want {
			if block[f] != n {
				t.Fatalf("block at %d has %d %s programs, want %d", i, block[f], f, n)
			}
		}
	}
	for _, r := range all {
		if seen[r.Source] {
			t.Fatalf("program repeats (or is a golden program): %s seed %d", r.Family, r.Seed)
		}
		seen[r.Source] = true
		fam[r.Family]++
		if r.Kind == "bytecode" {
			bc[r.Family]++
		}
	}
	for f, n := range fam {
		if d := math.Abs(float64(bc[f]) - float64(n)/bytecodeEvery); d > 1 {
			t.Errorf("%s: %d of %d sent as bytecode, want one in %d", f, bc[f], n, bytecodeEvery)
		}
	}
}

func TestStoreChurnProportions(t *testing.T) {
	p := mustPlan(t, "store-churn", 3, 1, nil)
	prefilled := map[*request]bool{}
	for _, r := range p.Prefill {
		prefilled[r] = true
	}
	if len(prefilled) != churnPrograms {
		t.Fatalf("prefill has %d programs, want %d", len(prefilled), churnPrograms)
	}
	fresh := map[string]bool{}
	for i := 0; i+churnNewEvery <= len(p.Timed); i += churnNewEvery {
		n := 0
		for _, r := range p.Timed[i : i+churnNewEvery] {
			if !prefilled[r] {
				n++
				if fresh[r.Source] {
					t.Fatalf("new program repeats at %d", i)
				}
				fresh[r.Source] = true
			}
		}
		if n != 1 {
			t.Fatalf("block at %d has %d new programs, want 1", i, n)
		}
	}
}

// TestWarmZipfSkew compares warm-zipf's request frequencies, ranked, with
// Zipf(s=1.1) over the 200 prefilled programs: P(rank r) = r^-s / H.
func TestWarmZipfSkew(t *testing.T) {
	p := mustPlan(t, "warm-zipf", 3, 10, nil)
	counts := map[*request]int{}
	for _, r := range p.Timed {
		counts[r]++
	}
	ranked := make([]int, 0, len(counts))
	for _, n := range counts {
		ranked = append(ranked, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ranked)))
	var h float64
	for r := 1; r <= warmPrograms; r++ {
		h += math.Pow(float64(r), -zipfS)
	}
	total := float64(len(p.Timed))
	for r := 1; r <= 5; r++ {
		want := math.Pow(float64(r), -zipfS) / h
		got := float64(ranked[r-1]) / total
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("rank %d share %.4f, want %.4f", r, got, want)
		}
	}
	var top10, want10 float64
	for r := 1; r <= 10; r++ {
		top10 += float64(ranked[r-1]) / total
		want10 += math.Pow(float64(r), -zipfS) / h
	}
	if math.Abs(top10-want10) > 0.02 {
		t.Errorf("top-10 share %.4f, want %.4f", top10, want10)
	}
	if len(counts) > warmPrograms {
		t.Errorf("requests reach %d programs, want at most %d", len(counts), warmPrograms)
	}
}
