package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, schema int) *Store {
	t.Helper()
	s, err := Open(dir, Options{Schema: schema, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), 1)
	payload := []byte(`{"report":"x"}`)
	if err := s.Put("k1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get of absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 write, 0 corrupt", st)
	}
}

func TestPutOverwrites(t *testing.T) {
	s := open(t, t.TempDir(), 1)
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "v2" {
		t.Fatalf("Get = %q, %v; want v2", got, ok)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d after overwrites; want 1", n)
	}
}

func TestBucketLayout(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1)
	if err := s.Put("layout", []byte("p")); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "??", "??", "*"+artSuffix))
	if err != nil || len(matches) != 1 {
		t.Fatalf("artifact not in two-level bucket layout: %v (%v)", matches, err)
	}
	base := filepath.Base(matches[0])
	if !strings.HasPrefix(base, filepath.Base(filepath.Dir(filepath.Dir(matches[0])))) {
		t.Fatalf("bucket dirs should prefix the artifact name: %s", matches[0])
	}
}

// artifactPath digs out the one artifact file under the store root.
func artifactPath(t *testing.T, root string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(root, "??", "??", "*"+artSuffix))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one artifact, got %v (%v)", matches, err)
	}
	return matches[0]
}

// TestCorruptionIsAMiss is the robustness criterion: a flipped payload byte,
// a truncated file, garbage, or an empty file must each read as a miss (and
// tick the corruption counter), never crash, and a re-Put must heal the slot.
func TestCorruptionIsAMiss(t *testing.T) {
	payload := []byte(`{"report":{"cfg":{"nodes":7}}}`)
	mutations := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)-2] ^= 0x40
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"garbage", func(b []byte) []byte { return []byte("not an artifact") }},
		{"bad header json", func(b []byte) []byte {
			i := bytes.IndexByte(b, '\n')
			return append(append(bytes.Clone(b[:i+1]), []byte("{oops\n")...), b...)
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 1)
			if err := s.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			path := artifactPath(t, dir)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, m.mutate(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k"); ok {
				t.Fatalf("corrupted artifact returned a hit: %q", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
			// The bad file must be gone (or at least the slot rewritable).
			if err := s.Put("k", payload); err != nil {
				t.Fatalf("re-Put after corruption: %v", err)
			}
			if got, ok := s.Get("k"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("slot did not heal after re-Put: %q, %v", got, ok)
			}
		})
	}
}

// TestKeyCollisionParanoia: an artifact whose header names a different key
// (as would happen on a sha256 path collision, or a file copied between
// stores) is rejected as corrupt.
func TestKeyCollisionParanoia(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1)
	if err := s.Put("kA", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Graft kA's file onto kB's path.
	src := artifactPath(t, dir)
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := s.path("kB")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("kB"); ok {
		t.Fatalf("foreign artifact served for kB: %q", got)
	}
}

// TestSchemaBumpInvalidates: reopening with a bumped schema version runs the
// migration hook and makes old entries unreachable — both via the key (the
// schema is folded in by the engine) and via the artifact's own header.
func TestSchemaBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 1)
	if err := s1.Put("k", []byte("v1 payload")); err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s1.Len())
	}

	var hookFrom, hookTo int
	s2, err := Open(dir, Options{Schema: 2, NoSync: true, Migrate: func(s *Store, from, to int) error {
		hookFrom, hookTo = from, to
		return PurgeMigration(s, from, to)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hookFrom != 1 || hookTo != 2 {
		t.Fatalf("migration hook ran with (%d,%d), want (1,2)", hookFrom, hookTo)
	}
	if n := s2.Len(); n != 0 {
		t.Fatalf("purge migration left %d artifacts", n)
	}
	if _, ok := s2.Get("k"); ok {
		t.Fatal("old-schema entry survived the bump")
	}
	// Reopening at the same schema must not re-run the hook.
	ran := false
	if _, err := Open(dir, Options{Schema: 2, NoSync: true, Migrate: func(s *Store, from, to int) error {
		ran = true
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("migration hook ran without a version change")
	}
}

// TestSchemaMismatchedArtifactRejected: even if a migration hook declines to
// purge, an artifact written under another schema version fails validation.
func TestSchemaMismatchedArtifactRejected(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 1)
	if err := s1.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Schema: 2, NoSync: true, Migrate: func(*Store, int, int) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k"); ok {
		t.Fatal("schema-1 artifact served by a schema-2 store")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("schema mismatch should count as corruption, stats = %+v", st)
	}
}

// TestConcurrentReadersWriters hammers one store from many goroutines, with
// overlapping keys, under -race. Every successful Get must return a value
// some writer actually wrote for that key.
func TestConcurrentReadersWriters(t *testing.T) {
	s := open(t, t.TempDir(), 1)
	const (
		keys    = 8
		workers = 8
		rounds  = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k%d", (w+i)%keys)
				if w%2 == 0 {
					if err := s.Put(k, []byte("val-"+k)); err != nil {
						t.Errorf("Put %s: %v", k, err)
						return
					}
				}
				if v, ok := s.Get(k); ok && string(v) != "val-"+k {
					t.Errorf("Get %s = %q, want val-%s", k, v, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent access produced corruption reports: %+v", st)
	}
}

// TestOrphanTmpSweep: tmp files orphaned by a crash between create and
// rename are removed at Open, while a fresh tmp file (a live writer in
// another process) is left alone. Artifacts are untouched either way.
func TestOrphanTmpSweep(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1)
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	bucket := filepath.Dir(artifactPath(t, dir))

	stale := filepath.Join(bucket, tmpPrefix+"stale1")
	fresh := filepath.Join(bucket, tmpPrefix+"fresh1")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 1)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp orphan survived the Open sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh tmp file (possible live writer) was swept: %v", err)
	}
	if st := s2.Stats(); st.TmpSwept != 1 {
		t.Fatalf("TmpSwept = %d, want 1", st.TmpSwept)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "payload" {
		t.Fatalf("artifact damaged by the sweep: %q, %v", got, ok)
	}
}

// TestGCEvictsOldestFirst: with MaxBytes set, Put triggers eviction by
// access time (mtime, refreshed on Get), total size compacts under the
// bound, and recently-read artifacts survive in preference to cold ones.
func TestGCEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1024)
	// Budget for roughly 8 of the ~1.2KB artifact files.
	s, err := Open(dir, Options{Schema: 1, NoSync: true, MaxBytes: 10 * 1024})
	if err != nil {
		t.Fatal(err)
	}

	// Write 4 artifacts, backdate k1..k3 an hour, and pin k0's access time
	// ahead of everything the test writes later — the "constantly re-read"
	// artifact. (The Get-touch path itself is exercised separately; explicit
	// Chtimes keeps this test deterministic under coarse mtime granularity.)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	for i := 1; i < 4; i++ {
		if err := os.Chtimes(s.path(fmt.Sprintf("k%d", i)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	hot := time.Now().Add(time.Hour)
	if err := os.Chtimes(s.path("k0"), hot, hot); err != nil {
		t.Fatal(err)
	}

	// Blow past the bound; GC must fire and compact below MaxBytes.
	for i := 4; i < 16; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.GCRuns == 0 || st.EvictedFiles == 0 || st.EvictedBytes == 0 {
		t.Fatalf("GC never fired: %+v", st)
	}
	if st.MaxBytes != 10*1024 {
		t.Fatalf("stats report bound %d, configured 10240", st.MaxBytes)
	}
	if st.DiskBytes > st.MaxBytes {
		t.Fatalf("disk bytes %d still above bound %d after GC", st.DiskBytes, st.MaxBytes)
	}
	// The backdated artifacts k1..k3 must be gone; the re-touched k0 and the
	// newest writes must survive.
	for i := 1; i < 4; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("cold artifact k%d survived eviction", i)
		}
	}
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("hot artifact k0 was evicted before cold ones")
	}
	if _, ok := s.Get("k15"); !ok {
		t.Fatal("newest artifact k15 was evicted")
	}
}

// TestGetTouchRefreshesAccessClock: a Get on a bounded store pushes the
// artifact's mtime forward — the clock GC evicts by.
func TestGetTouchRefreshesAccessClock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Schema: 1, NoSync: true, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	path := s.path("k")
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("Get missed")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(old.Add(30 * time.Minute)) {
		t.Fatalf("Get did not refresh the access clock: mtime %v", info.ModTime())
	}
}

// TestGCConcurrentPutGet hammers a bounded store from readers and writers
// under -race: every successful Get returns the right bytes (an evicted
// artifact is a miss, never a wrong answer), no corruption is reported, and
// the store ends under its bound.
func TestGCConcurrentPutGet(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 512)
	s, err := Open(t.TempDir(), Options{Schema: 1, NoSync: true, MaxBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	const (
		keys    = 48 // ~32KB of artifacts vs an 8KB bound: GC runs constantly
		workers = 8
		rounds  = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k%d", (w*rounds+i)%keys)
				if w%2 == 0 {
					if err := s.Put(k, append(bytes.Clone(payload), k...)); err != nil {
						t.Errorf("Put %s: %v", k, err)
						return
					}
				}
				if v, ok := s.Get(k); ok && !bytes.HasSuffix(v, []byte(k)) {
					t.Errorf("Get %s returned another key's payload", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Corrupt != 0 {
		t.Fatalf("concurrent GC produced corruption reports: %+v", st)
	}
	if st.EvictedFiles == 0 {
		t.Fatalf("GC never evicted despite 4x oversubscription: %+v", st)
	}
	// One final GC-triggering Put settles any in-flight drift, then the
	// bound must hold.
	if err := s.Put("final", payload); err != nil {
		t.Fatal(err)
	}
	s.gc()
	if got := s.DiskBytes(); got > st.MaxBytes {
		t.Fatalf("disk bytes %d above bound %d after settling", got, st.MaxBytes)
	}
}

func TestOpenRejectsBadSchema(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{Schema: 0}); err == nil {
		t.Fatal("Open accepted schema 0")
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 1)
	if err := s1.Put("k", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 1)
	got, ok := s2.Get("k")
	if !ok || string(got) != "durable" {
		t.Fatalf("reopened store lost the artifact: %q, %v", got, ok)
	}
}
