package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// servedBody renders a report the way dfg-serve answers POST /analyze.
func servedBody(t *testing.T, key, tier string, report []byte) []byte {
	t.Helper()
	var ind bytes.Buffer
	if err := json.Indent(&ind, report, "  ", "  "); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(map[string]any{
		"ok": true, "key": key, "tier": tier, "report": json.RawMessage(ind.Bytes()),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tamper rewrites one field of a compact report.
func tamper(t *testing.T, report []byte, section, field string, v any) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(report, &m); err != nil {
		t.Fatal(err)
	}
	var sec map[string]any
	if err := json.Unmarshal(m[section], &sec); err != nil {
		t.Fatal(err)
	}
	sec[field] = v
	raw, err := json.Marshal(sec)
	if err != nil {
		t.Fatal(err)
	}
	m[section] = raw
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerGolden(t *testing.T) {
	gs, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	g := gs[0]

	c := newChecker()
	if _, err := c.observe(g.Req.Key, servedBody(t, g.Req.Key, "compute", g.Report)); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if _, err := c.observe(g.Req.Key, servedBody(t, g.Req.Key, "lru", g.Report)); err != nil {
		t.Fatalf("identical second tier rejected: %v", err)
	}
	if err := c.expect(g.Req.Key, g.Name, g.Report); err != nil {
		t.Fatalf("golden report rejected: %v", err)
	}

	bad := tamper(t, g.Report, "cfg", "edges", 999)
	c = newChecker()
	if _, err := c.observe(g.Req.Key, servedBody(t, g.Req.Key, "compute", bad)); err != nil {
		t.Fatalf("tampered counts still pass the flag checks, got %v", err)
	}
	if err := c.expect(g.Req.Key, g.Name, g.Report); err == nil {
		t.Fatal("tampered report matched its golden file")
	}
}

func TestCheckerRejectsTierMismatch(t *testing.T) {
	gs, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	g := gs[len(gs)-1]
	c := newChecker()
	if _, err := c.observe(g.Req.Key, servedBody(t, g.Req.Key, "compute", g.Report)); err != nil {
		t.Fatal(err)
	}
	bad := tamper(t, g.Report, "dfg", "dependences", 1)
	if _, err := c.observe(g.Req.Key, servedBody(t, g.Req.Key, "store", bad)); err == nil {
		t.Fatal("store-tier report differing from the compute-tier report was accepted")
	}
}

func TestCheckerRejectsFlagsAndKey(t *testing.T) {
	gs, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	g := gs[0]
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"constprop disagrees", servedBody(t, g.Req.Key, "compute", tamper(t, g.Report, "constprop", "agree", false))},
		{"ssa not equivalent", servedBody(t, g.Req.Key, "compute", tamper(t, g.Report, "ssa", "equivalent", false))},
		{"wrong key", servedBody(t, gs[1].Req.Key, "compute", g.Report)},
		{"not ok", []byte(`{"ok":false,"error":"boom"}`)},
	} {
		if _, err := newChecker().observe(g.Req.Key, tc.body); err == nil {
			t.Errorf("%s: answer accepted", tc.name)
		}
	}
}

func TestCheckerStatuses(t *testing.T) {
	gs, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	key := gs[0].Req.Key
	for _, tc := range []struct {
		name        string
		status      int
		body        []byte
		fault, fail bool
	}{
		{"ok", 200, servedBody(t, key, "compute", gs[0].Report), false, false},
		{"transport error", 0, nil, true, false},
		{"timeout", 408, []byte(`{"ok":false,"error":"context deadline exceeded"}`), true, false},
		{"every backend failed", 502, []byte(`{"ok":false,"error":"all 2 backend attempt(s) failed: read batch result: EOF"}`), true, false},
		{"analysis error", 422, []byte(`{"ok":false,"error":"stage epr panicked: boom"}`), false, true},
		{"bad request", 400, []byte(`{"ok":false,"error":"unknown stage"}`), false, true},
		{"malformed backend report", 502, []byte(`{"ok":false,"error":"malformed backend report: EOF"}`), false, true},
		{"server error", 500, []byte(`{"ok":false,"error":"malformed stored report"}`), false, true},
	} {
		c := newChecker()
		_, fault, err := c.check(key, tc.status, tc.body)
		if fault != tc.fault || (err != nil) != tc.fail || (len(c.failures) > 0) != tc.fail {
			t.Errorf("%s: fault=%v err=%v failures=%v, want fault=%v fail=%v", tc.name, fault, err, c.failures, tc.fault, tc.fail)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(3), End: ms(6)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(9), End: ms(12)}, // runs past the parent
	}
	self := selfTimes(spans)
	if want := 10*time.Millisecond - 5*time.Millisecond - time.Millisecond; self[1] != want {
		t.Errorf("parent self time %v, want %v", self[1], want)
	}
	if self[2] != 3*time.Millisecond {
		t.Errorf("leaf self time %v, want 3ms", self[2])
	}
}

func TestJoinByRequestID(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	p1 := r.add(0, "client", "k", "", at(0), at(10))
	p2 := r.add(0, "client", "k", "", at(20), at(30))
	r.add(0, "client", "j", "", at(0), at(30))
	w1 := r.add(0, "worker", "k", "", at(22), at(25))
	w2 := r.add(0, "worker", "k", "", at(2), at(5))
	stray := r.add(0, "worker", "j", "", at(40), at(45)) // outside every client span
	r.join("client", "worker")
	spans := r.snapshot()
	if spans[w1-1].Parent != p2 || spans[w2-1].Parent != p1 {
		t.Fatalf("workers joined to %d and %d, want %d and %d", spans[w1-1].Parent, spans[w2-1].Parent, p2, p1)
	}
	if spans[stray-1].Parent != 0 {
		t.Fatalf("uncontained worker span joined to %d", spans[stray-1].Parent)
	}
}
