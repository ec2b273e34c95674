package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dfg/internal/workload"
)

// answer is the part of a POST /analyze response the checker reads.
type answer struct {
	OK     bool            `json:"ok"`
	Key    string          `json:"key"`
	Tier   string          `json:"tier"`
	Report json.RawMessage `json:"report"`
	Error  string          `json:"error"`
}

// checker verifies served answers. Every answer must carry the key the
// request implies and a report whose SSA constructions are equivalent and
// whose two constant propagations agree; all answers for one key must carry
// byte-identical reports whatever tier served them.
type checker struct {
	reports  map[string][]byte // key -> compact report bytes first seen
	firstBy  map[string]string // key -> tier of the first answer
	failures []string
}

func newChecker() *checker {
	return &checker{reports: map[string][]byte{}, firstBy: map[string]string{}}
}

func (c *checker) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if len(c.failures) < 20 {
		c.failures = append(c.failures, err.Error())
	}
	return err
}

// parseAnswer decodes a 200 response body and returns it with its report in
// compact form.
func parseAnswer(body []byte) (answer, []byte, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, nil, fmt.Errorf("malformed response: %w", err)
	}
	if !a.OK {
		return a, nil, fmt.Errorf("response not ok: %s", a.Error)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, a.Report); err != nil {
		return a, nil, fmt.Errorf("malformed report: %w", err)
	}
	return a, buf.Bytes(), nil
}

// observe checks one 200 answer to a request whose report key is wantKey.
// It returns the tier that served it.
func (c *checker) observe(wantKey string, body []byte) (string, error) {
	a, rep, err := parseAnswer(body)
	if err != nil {
		return "", c.fail("%s: %v", short(wantKey), err)
	}
	if a.Key != wantKey {
		return a.Tier, c.fail("answer key %s, want %s", short(a.Key), short(wantKey))
	}
	var flags struct {
		SSA *struct {
			Equivalent bool `json:"equivalent"`
		} `json:"ssa"`
		Constprop *struct {
			Agree bool `json:"agree"`
		} `json:"constprop"`
	}
	if err := json.Unmarshal(rep, &flags); err != nil {
		return a.Tier, c.fail("%s: report: %v", short(wantKey), err)
	}
	if flags.SSA == nil || !flags.SSA.Equivalent {
		return a.Tier, c.fail("%s: ssa.equivalent is not true", short(wantKey))
	}
	if flags.Constprop == nil || !flags.Constprop.Agree {
		return a.Tier, c.fail("%s: constprop.agree is not true", short(wantKey))
	}
	if prev, ok := c.reports[wantKey]; ok {
		if !bytes.Equal(prev, rep) {
			return a.Tier, c.fail("%s: %s-tier report differs from the %s-tier report", short(wantKey), a.Tier, c.firstBy[wantKey])
		}
		return a.Tier, nil
	}
	c.reports[wantKey] = rep
	c.firstBy[wantKey] = a.Tier
	return a.Tier, nil
}

// check checks one answer, whatever its status, to a request whose report
// key is wantKey. A 200 answer goes through observe. A transport fault (see
// transportFault) is reported as fault and is not a wrong answer; every
// other status is, because every program the benchmark sends is valid.
func (c *checker) check(wantKey string, status int, body []byte) (tier string, fault bool, err error) {
	switch {
	case status == http.StatusOK:
		tier, err = c.observe(wantKey, body)
		return tier, false, err
	case transportFault(status, body):
		return "", true, nil
	}
	return "", false, c.fail("%s: HTTP %d: %s", short(wantKey), status, errorText(body))
}

// transportFault reports whether a failed request is one of the transport
// faults the benchmark counts rather than a wrong answer: the client's own
// transport error (status 0), a timeout (408), or a 502 from dfg-serve after
// every backend attempt failed.
func transportFault(status int, body []byte) bool {
	switch status {
	case 0, http.StatusRequestTimeout:
		return true
	case http.StatusBadGateway:
		return strings.Contains(errorText(body), "backend attempt(s) failed")
	}
	return false
}

// errorText extracts the error field of a failed response body.
func errorText(body []byte) string {
	var a answer
	if json.Unmarshal(body, &a) == nil && a.Error != "" {
		return a.Error
	}
	return strings.TrimSpace(string(body))
}

// expect checks that the report recorded for key equals want (compact).
func (c *checker) expect(key, name string, want []byte) error {
	got, ok := c.reports[key]
	if !ok {
		return c.fail("%s: no answer recorded", name)
	}
	if !bytes.Equal(got, want) {
		return c.fail("%s: served report differs from the expected report", name)
	}
	return nil
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// goldenProgram is one program pinned in internal/pipeline/testdata/golden
// with its expected report in compact form.
type goldenProgram struct {
	Name   string
	Report []byte
	Req    *request
}

// loadGolden reads the pinned golden corpus from a checkout rooted at root:
// the example programs plus Mixed(15) seeds 1..8, exactly as the pipeline's
// golden test enumerates them.
func loadGolden(root string) ([]goldenProgram, error) {
	var srcs [][2]string
	dir := filepath.Join(root, "examples", "programs")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".dfg") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, [2]string{"example-" + strings.TrimSuffix(e.Name(), ".dfg"), string(b)})
	}
	for seed := int64(1); seed <= 8; seed++ {
		srcs = append(srcs, [2]string{fmt.Sprintf("mixed-15-seed%d", seed), workload.Mixed(15, seed).String()})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i][0] < srcs[j][0] })
	var out []goldenProgram
	for _, s := range srcs {
		raw, err := os.ReadFile(filepath.Join(root, "internal", "pipeline", "testdata", "golden", s[0]+".json"))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			return nil, fmt.Errorf("golden %s: %w", s[0], err)
		}
		r := &request{Family: "golden", Source: s[1]}
		if err := finish(r); err != nil {
			return nil, err
		}
		out = append(out, goldenProgram{Name: s[0], Report: buf.Bytes(), Req: r})
	}
	if len(out) != 13 {
		return nil, fmt.Errorf("golden corpus has %d programs, want 13", len(out))
	}
	return out, nil
}

// goldenSources returns the golden programs' sources, which the workload
// generators must never emit.
func goldenSources(gs []goldenProgram) map[string]bool {
	m := map[string]bool{}
	for _, g := range gs {
		m[g.Req.Source] = true
	}
	return m
}
