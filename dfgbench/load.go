package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one timed request as the client saw it.
type outcome struct {
	req     *request
	start   time.Time
	latency time.Duration // first request write to last full body read
	tries   int           // attempts sent (see send)
	status  int           // of the last attempt; 0 when the transport failed
	err     string
	body    uint64 // fnv-64a of the response body; bodies holds the bytes
	size    int    // response body bytes
}

func (o *outcome) ok() bool { return o.status == http.StatusOK }

// bodySet keeps one copy of every distinct response body seen, so answers
// are checked after the timed window without holding every response.
type bodySet struct {
	mu sync.Mutex
	m  map[uint64][]byte
}

func (s *bodySet) add(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	sum := h.Sum64()
	s.mu.Lock()
	if s.m == nil {
		s.m = map[uint64][]byte{}
	}
	if _, ok := s.m[sum]; !ok {
		s.m[sum] = b
	}
	s.mu.Unlock()
	return sum
}

func (s *bodySet) get(sum uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[sum]
}

// post sends one analyze request and reads the whole response.
func post(ctx context.Context, hc *http.Client, url string, r *request) (status int, body []byte, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/analyze", bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// maxTries bounds the attempts send makes for one request.
const maxTries = 3

// send posts r like a client of a gateway would: an attempt that fails in
// transport (see transportFault) is sent again, up to maxTries attempts in
// all. Every other answer, right or wrong, is returned as it came. The
// request is idempotent, so a re-sent attempt cannot change the answer;
// the time of the failed attempts stays in the request's latency and the
// attempts are counted.
func send(ctx context.Context, hc *http.Client, url string, r *request) (status int, body []byte, err error, tries int) {
	for tries < maxTries {
		tries++
		status, body, err = post(ctx, hc, url, r)
		if status == http.StatusOK || !transportFault(status, body) || ctx.Err() != nil {
			break
		}
	}
	return status, body, err, tries
}

// drive runs a closed loop: each of clients goroutines sends the next
// request of seq as soon as its previous one completes. With dur > 0 no
// request starts after dur has elapsed; with dur == 0 the whole sequence
// is sent. It returns the outcomes in start order and the wall time from
// the first send to the last completion.
func drive(ctx context.Context, hc *http.Client, url string, seq []*request, clients int, dur time.Duration, bodies *bodySet) ([]outcome, time.Duration) {
	outs := make([]outcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	stopAt := begin.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if dur > 0 && !time.Now().Before(stopAt) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				o := &outs[i]
				o.req = seq[i]
				o.start = time.Now()
				status, body, err, tries := send(ctx, hc, url, seq[i])
				o.latency = time.Since(o.start)
				o.tries = tries
				o.status = status
				o.size = len(body)
				if err != nil {
					o.err = err.Error()
				}
				if body != nil && bodies != nil {
					o.body = bodies.add(body)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(begin)
	n := int(next.Load())
	if n > len(seq) {
		n = len(seq)
	}
	return outs[:n], wall
}

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs must be
// sorted ascending.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// failedLatencyMS stands for a failed request's latency. A failure counts
// as +Inf in the percentiles; JSON has no infinity, so the client timeout,
// which no successful request can exceed, takes its place.
const failedLatencyMS = float64(clientTimeout / time.Millisecond)

// latenciesMS returns the outcomes' latencies in ms, sorted, with failed
// requests as failedLatencyMS.
func latenciesMS(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		if outs[i].ok() {
			xs[i] = float64(outs[i].latency) / float64(time.Millisecond)
		} else {
			xs[i] = failedLatencyMS
		}
	}
	sort.Float64s(xs)
	return xs
}

// median of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// statsz fetches dfg-serve's frontier counters.
func statsz(hc *http.Client, url string) (frontierStats, error) {
	var out struct {
		Frontier *frontierStats `json:"frontier"`
	}
	resp, err := hc.Get(url + "/statsz")
	if err != nil {
		return frontierStats{}, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return frontierStats{}, fmt.Errorf("decode /statsz: %w", err)
	}
	if out.Frontier == nil {
		return frontierStats{}, fmt.Errorf("/statsz has no frontier section")
	}
	return *out.Frontier, nil
}

// frontierStats is the subset of /statsz's frontier section the fault
// accounting reads.
type frontierStats struct {
	Retries       int64 `json:"retries"`
	RoutedOK      int64 `json:"routed_ok"`
	RoutedErr     int64 `json:"routed_err"`
	SharedRetries int64 `json:"shared_error_retries"`
	Backends      []struct {
		Name     string `json:"name"`
		Requests int64  `json:"requests"`
		Errors   int64  `json:"errors"`
		Dials    int64  `json:"dials"`
	} `json:"backends"`
}

// faults is the frontier counter delta over the timed window.
type faults struct {
	Requests   int64            // backend attempts, all backends
	Errors     int64            // failed backend calls
	Retries    int64            // failovers (plus shared-error retries)
	RoutedOK   int64            // useful answers
	RoutedErr  int64            // requests that exhausted every backend
	Dials      int64            // new wire connections
	PerBackend map[string]int64 // answers served per backend
	MaxShare   float64          // largest share of answers one backend served
}

func faultDelta(before, after frontierStats) faults {
	f := faults{
		Retries:    after.Retries - before.Retries + after.SharedRetries - before.SharedRetries,
		RoutedOK:   after.RoutedOK - before.RoutedOK,
		RoutedErr:  after.RoutedErr - before.RoutedErr,
		PerBackend: map[string]int64{},
	}
	prev := map[string][3]int64{}
	for _, b := range before.Backends {
		prev[b.Name] = [3]int64{b.Requests, b.Errors, b.Dials}
	}
	for _, b := range after.Backends {
		p := prev[b.Name]
		reqs, errs := b.Requests-p[0], b.Errors-p[1]
		f.PerBackend[b.Name] = reqs - errs
		f.Requests += reqs
		f.Errors += errs
		f.Dials += b.Dials - p[2]
	}
	var served int64
	for _, n := range f.PerBackend {
		served += n
	}
	for _, n := range f.PerBackend {
		if served > 0 {
			f.MaxShare = math.Max(f.MaxShare, float64(n)/float64(served))
		}
	}
	return f
}

// drain discards and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// hostSteal reads the host's cumulative steal time (CPU time the
// hypervisor gave to other guests while this one wanted to run), in USER_HZ
// ticks over all CPUs, from /proc/stat's aggregate cpu line.
func hostSteal() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("malformed /proc/stat")
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// stealShare converts steal ticks over an interval into a share of the
// host's CPU time.
func stealShare(ticks int64, d time.Duration) float64 {
	return float64(ticks) * float64(10*time.Millisecond) / (float64(d) * float64(runtime.NumCPU()))
}
