package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	var s Set // zero value usable
	if s.Has(0) || s.Has(1000) {
		t.Fatal("zero set should be empty")
	}
	s.Add(3)
	s.Add(64)
	s.Add(64) // idempotent
	s.Add(129)
	if !s.Has(3) || !s.Has(64) || !s.Has(129) {
		t.Fatalf("missing bits: %v %v %v", s.Has(3), s.Has(64), s.Has(129))
	}
	if s.Has(4) || s.Has(63) || s.Has(65) {
		t.Fatal("unexpected bits set")
	}
	if got := s.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	s.Remove(64)
	s.Remove(9999) // out of range: no-op
	if s.Has(64) || s.Count() != 2 {
		t.Fatalf("Remove failed: count=%d", s.Count())
	}
	s.Reset()
	if s.Count() != 0 || s.Has(3) {
		t.Fatal("Reset failed")
	}
	s.Grow(500)
	if s.Has(500) {
		t.Fatal("Grow must not set bits")
	}
}

func TestWorklistFIFOAndDedup(t *testing.T) {
	w := NewWorklist(4)
	w.Push(2)
	w.Push(7)
	w.Push(2) // duplicate while pending: dropped
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	if k, ok := w.Pop(); !ok || k != 2 {
		t.Fatalf("Pop = %d,%v want 2,true", k, ok)
	}
	w.Push(2) // re-push after pop: allowed
	if k, ok := w.Pop(); !ok || k != 7 {
		t.Fatalf("Pop = %d,%v want 7,true", k, ok)
	}
	if k, ok := w.Pop(); !ok || k != 2 {
		t.Fatalf("Pop = %d,%v want 2,true", k, ok)
	}
	if _, ok := w.Pop(); ok {
		t.Fatal("expected empty")
	}
	// Exercise queue recycling after drain.
	for i := 0; i < 100; i++ {
		w.Push(i)
	}
	seen := 0
	for {
		if _, ok := w.Pop(); !ok {
			break
		}
		seen++
	}
	if seen != 100 {
		t.Fatalf("drained %d, want 100", seen)
	}
}

func TestWorklistDrainProperty(t *testing.T) {
	// Pushing n distinct keys yields exactly n pops regardless of
	// duplicate pushes while pending.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wl := NewWorklist(0)
		distinct := map[int]bool{}
		for i := 0; i < 50; i++ {
			k := rng.Intn(10)
			distinct[k] = true
			wl.Push(k)
		}
		got := 0
		for {
			if _, ok := wl.Pop(); !ok {
				break
			}
			got++
		}
		return got == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
