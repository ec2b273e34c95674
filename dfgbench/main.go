// Command dfgbench is the repository's end-to-end benchmark. It starts the
// README's sharded deployment (dfg-serve over two dfg-worker processes,
// default flags) in fresh directories, drives one seeded closed-loop HTTP
// workload against it, checks every answer, and prints the end-to-end
// metrics; with -trace 1 it also replays the same traffic through each
// layer's Go entry points and prints per-layer metrics instead. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash dfgbench/run.sh --workload cold-mixed --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// fault baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"dfg/internal/pipeline"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root (golden files, work directories)
	bin      string // directory holding dfg-serve and dfg-worker
}

// setups is how many times a run sets the deployment up; setup_s is the
// median of their times.
const setups = 7

// The host's hypervisor steals CPU time in spells of some seconds, and
// every figure of a step that runs through one is slower for it. A set-up
// or timed window over which more than maxSteal of the host's CPU time was
// stolen is therefore discarded and made again: at most setupRedos
// set-ups and windowTries-1 windows per run, so that a run stays within
// its time budget. When the budget is spent the step is kept; a kept
// window over maxSteal marks the run steal_exceeded.
const (
	maxSteal    = 0.03
	setupRedos  = 3
	windowTries = 2
)

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.IntVar(&c.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also run the traced replay and print per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "repository checkout root")
	flag.StringVar(&c.bin, "bin", ".bench_build/bin", "directory with the dfg-serve and dfg-worker binaries")
	flag.Parse()
	c.trace = traceFlag == 1
	if c.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "dfgbench: -seconds must be >= 1, -trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, c)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfgbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfgbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// mainRun is what the untraced deployment produced.
type mainRun struct {
	plan   *plan
	outs   []outcome
	wall   time.Duration
	cpu    time.Duration
	hwm    int64
	setups []float64 // seconds per kept set-up
	steal  float64   // share of the host's CPU time stolen over the window

	stolenSetups  []float64 // steal share of each discarded set-up
	stolenWindows []float64 // steal share of each discarded window
	faults        faults
	tiers         map[string]int
	ok            int
	errs          map[string]int // error text (or status) -> count
	checker       *checker
	golden        []goldenProgram

	retries     int // timed-window attempts re-sent after a transport fault
	setupFailed int // set-up requests that failed in transport (all set-ups)
	gateRetries int // golden-gate attempts re-sent after a transport fault
}

func run(ctx context.Context, c config) (*result, error) {
	golden, err := loadGolden(c.root)
	if err != nil {
		return nil, fmt.Errorf("load golden corpus: %w", err)
	}
	p, err := buildPlan(c.workload, c.seed, c.seconds, goldenSources(golden))
	if err != nil {
		return nil, err
	}
	for _, b := range []string{"dfg-serve", "dfg-worker"} {
		if _, err := os.Stat(filepath.Join(c.bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary (build with run.sh): %w", err)
		}
	}
	work, err := os.MkdirTemp(filepath.Join(c.root, ".bench_build"), "run-"+c.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	m, err := runMain(ctx, c, p, golden, filepath.Join(work, "main"))
	if err != nil {
		return nil, err
	}
	printMain(c, m)

	res := &result{
		Correct:   len(m.checker.failures) == 0,
		Attempted: len(m.outs),
		Failed:    len(m.outs) - m.ok,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no request completed in the timed window")
	}
	for _, f := range m.checker.failures {
		fmt.Printf("  CHECK FAILED: %s\n", f)
	}
	if !c.trace {
		for k, v := range endToEnd(m) {
			res.Metrics[k] = v
		}
		return res, nil
	}
	layers, err := runTraced(ctx, c, m, filepath.Join(work, "trace"))
	if err != nil {
		return nil, err
	}
	if len(layers.failures) > 0 {
		res.Correct = false
		for _, f := range layers.failures {
			fmt.Printf("  CHECK FAILED (traced run): %s\n", f)
		}
	}
	printTable("per-layer metrics", layers.metrics, layers.samples)
	res.Metrics = layers.metrics
	return res, nil
}

// runMain sets the deployment up setups times (keeping the last), runs
// the timed window, and checks every answer plus the golden gate. A set-up
// or window over maxSteal is discarded and made again, within the budgets
// setupRedos and windowTries; its answers are still checked.
func runMain(ctx context.Context, c config, p *plan, golden []goldenProgram, dir string) (*mainRun, error) {
	m := &mainRun{plan: p, tiers: map[string]int{}, errs: map[string]int{}, checker: newChecker(), golden: golden}
	var dep *deployment
	var hc *http.Client
	defer func() {
		if dep != nil {
			dep.stop()
		}
	}()
	for k := 0; len(m.setups) < setups; k++ {
		if dep != nil {
			dep.stop()
			hc.CloseIdleConnections()
		}
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		hc = httpClient(p.Clients)
		setupBodies := &bodySet{}
		steal0, err := hostSteal()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		dep, err = startDeployment(c.bin, sdir, p.Reports, hc)
		if err != nil {
			return nil, err
		}
		outs, _ := drive(ctx, hc, dep.url, p.Prefill, p.Clients, 0, setupBodies)
		warm, _ := drive(ctx, hc, dep.url, p.Warmup, p.Clients, 0, setupBodies)
		took := time.Since(t0)
		steal1, err := hostSteal()
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, o := range append(outs, warm...) {
			if _, fault, _ := m.checker.check(o.req.Key, o.status, setupBodies.get(o.body)); fault {
				m.setupFailed++
			}
		}
		if st := stealShare(steal1-steal0, took); st > maxSteal && len(m.stolenSetups) < setupRedos {
			m.stolenSetups = append(m.stolenSetups, st)
			continue
		}
		m.setups = append(m.setups, took.Seconds())
	}

	var w *window
	for next := 0; ; {
		var err error
		w, err = timedWindow(ctx, hc, dep, p.Timed[next:], p.Clients, time.Duration(c.seconds)*time.Second)
		if err != nil {
			return nil, err
		}
		next += len(w.outs)
		if next == len(p.Timed) {
			fmt.Fprintf(os.Stderr, "dfgbench: warning: the timed windows used all %d generated requests\n", len(p.Timed))
		}
		if w.steal <= maxSteal || len(m.stolenWindows) == windowTries-1 {
			break
		}
		m.stolenWindows = append(m.stolenWindows, w.steal)
		for i := range w.outs {
			o := &w.outs[i]
			m.checker.check(o.req.Key, o.status, w.bodies.get(o.body))
		}
	}
	for _, pid := range dep.pids() {
		h, err := procHWM(pid)
		if err != nil {
			return nil, err
		}
		m.hwm += h
	}
	m.outs, m.wall, m.cpu, m.steal, m.faults = w.outs, w.wall, w.cpu, w.steal, w.faults

	for i := range m.outs {
		o := &m.outs[i]
		body := w.bodies.get(o.body)
		tier, _, _ := m.checker.check(o.req.Key, o.status, body)
		m.retries += o.tries - 1
		if !o.ok() {
			msg := o.err
			if msg == "" {
				msg = fmt.Sprintf("HTTP %d: %s", o.status, errorText(body))
			}
			m.errs[msg]++
			continue
		}
		m.ok++
		m.tiers[tier]++
	}

	hc.CloseIdleConnections()
	err := goldenGate(ctx, c, m, dep)
	dep = nil // goldenGate stopped it
	if err != nil {
		return nil, err
	}
	return m, crossCheck(ctx, m)
}

// window is what one timed window measured.
type window struct {
	outs   []outcome
	bodies *bodySet
	wall   time.Duration
	cpu    time.Duration // the three server processes' CPU time
	steal  float64       // share of the host's CPU time stolen
	faults faults
}

// timedWindow drives seq against dep for dur and measures it.
func timedWindow(ctx context.Context, hc *http.Client, dep *deployment, seq []*request, clients int, dur time.Duration) (*window, error) {
	pids := dep.pids()
	before, err := statsz(hc, dep.url)
	if err != nil {
		return nil, err
	}
	cpu0, err := totalCPU(pids)
	if err != nil {
		return nil, err
	}
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	w := &window{bodies: &bodySet{}}
	w.outs, w.wall = drive(ctx, hc, dep.url, seq, clients, dur, w.bodies)
	cpu1, err := totalCPU(pids)
	if err != nil {
		return nil, err
	}
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	after, err := statsz(hc, dep.url)
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	w.steal = stealShare(steal1-steal0, w.wall)
	w.faults = faultDelta(before, after)
	return w, ctx.Err()
}

// goldenGate checks the golden programs on the deployment's own store
// directories. The timed deployment is stopped first; a fresh deployment
// over the same directories serves every golden program twice (compute
// tier, then the report LRU), and a second restart serves them a third time
// (store tier). Fresh processes keep the gate clear of connections the
// timed window aged. Every answer must equal its golden file after JSON
// compaction and pass the checker; across the gate all three tiers must
// have answered. As everywhere in the benchmark, an attempt that fails in
// transport is sent again (see send) and the re-sends are counted.
func goldenGate(ctx context.Context, c config, m *mainRun, dep *deployment) error {
	dep.stop()
	tiers := map[string]int{}
	serveAll := func(d *deployment, hc *http.Client) {
		for i, g := range m.golden {
			status, body, err, tries := send(ctx, hc, d.url, g.Req)
			m.gateRetries += tries - 1
			if err != nil || status != http.StatusOK {
				m.checker.fail("golden %s: status %d %v %s", m.golden[i].Name, status, err, errorText(body))
				continue
			}
			tier, err := m.checker.observe(g.Req.Key, body)
			if err == nil {
				tiers[tier]++
				m.checker.expect(g.Req.Key, "golden "+g.Name, g.Report)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		hc := httpClient(1)
		d, err := startDeployment(c.bin, dep.dir, m.plan.Reports, hc)
		if err != nil {
			return fmt.Errorf("restart for the golden gate: %w", err)
		}
		serveAll(d, hc)
		if pass == 0 {
			serveAll(d, hc)
		}
		d.stop()
		hc.CloseIdleConnections()
	}
	for _, t := range []string{string(pipeline.TierCompute), string(pipeline.TierLRU), string(pipeline.TierStore)} {
		if tiers[t] == 0 {
			m.checker.fail("golden gate: no answer came from the %s tier (tiers seen: %v)", t, tiers)
		}
	}
	return ctx.Err()
}

// crossCheckN bounds the in-process recomputation of served reports.
const crossCheckN = 24

// crossCheck recomputes the first crossCheckN distinct served programs with
// an in-process engine and requires byte-identical reports.
func crossCheck(ctx context.Context, m *mainRun) error {
	eng := pipeline.New(pipeline.Config{})
	seen := map[string]bool{}
	served := append([]*request(nil), m.plan.Prefill...)
	for i := range m.outs {
		served = append(served, m.outs[i].req)
	}
	for _, r := range served {
		if len(seen) >= crossCheckN {
			break
		}
		if seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		if _, ok := m.checker.reports[r.Key]; !ok {
			continue // failed request: already counted
		}
		rr, err := eng.AnalyzeReport(ctx, pipeline.Request{Source: r.Source, Options: pipeline.Options{SourceKind: r.Kind}})
		if err != nil {
			m.checker.fail("in-process analysis of %s: %v", short(r.Key), err)
			continue
		}
		m.checker.expect(r.Key, "in-process "+short(r.Key), rr.Raw)
	}
	return ctx.Err()
}

// endToEnd computes the end-to-end metrics of the main run over the whole
// timed window.
func endToEnd(m *mainRun) map[string]metric {
	ok := math.Max(float64(m.ok), 1)
	return map[string]metric{
		"latency_p50_ms": {quantile(latenciesMS(m.outs), 0.50), "ms"},
		"latency_p99_ms": {quantile(latenciesMS(m.outs), 0.99), "ms"},
		"req_per_s":      {float64(m.ok) / m.wall.Seconds(), "1/s"},
		"cpu_ms_per_req": {float64(m.cpu) / float64(time.Millisecond) / ok, "ms"},
		"peak_rss_mb":    {float64(m.hwm) / (1 << 20), "MB"},
		"setup_s":        {median(m.setups), "s"},
	}
}

// faultMetrics are the per-layer metrics read from the main run: the
// client's re-sends, the frontier's counter delta over the window and the
// tier of every answer.
func faultMetrics(m *mainRun) map[string]metric {
	n := math.Max(float64(len(m.outs)), 1)
	tierShare := func(t pipeline.ReportTier) metric {
		return metric{float64(m.tiers[string(t)]) / math.Max(float64(m.ok), 1), "share"}
	}
	f := m.faults
	firstTry := 0.0
	if f.Requests > 0 {
		firstTry = float64(f.RoutedOK) / float64(f.Requests)
	}
	return map[string]metric{
		"client.retries_per_kreq":          {float64(m.retries) / n * 1000, "1/kreq"},
		"frontier.backend_errors_per_kreq": {float64(f.Errors) / n * 1000, "1/kreq"},
		"frontier.retries_per_kreq":        {float64(f.Retries) / n * 1000, "1/kreq"},
		"frontier.first_try_share":         {firstTry, "share"},
		"frontier.max_backend_share":       {f.MaxShare, "share"},
		"tier.compute_share":               tierShare(pipeline.TierCompute),
		"tier.lru_share":                   tierShare(pipeline.TierLRU),
		"tier.store_share":                 tierShare(pipeline.TierStore),
	}
}

// printMain prints the human-readable summary of the main run.
func printMain(c config, m *mainRun) {
	fmt.Printf("dfgbench workload=%s seed=%d seconds=%d clients=%d requests=%d ok=%d failed=%d\n",
		c.workload, c.seed, c.seconds, m.plan.Clients, len(m.outs), m.ok, len(m.outs)-m.ok)
	n := len(m.outs)
	samples := map[string]int{
		"latency_p50_ms": n, "latency_p99_ms": n, "req_per_s": n,
		"cpu_ms_per_req": n, "peak_rss_mb": 3, "setup_s": len(m.setups),
	}
	printTable("end-to-end metrics", endToEnd(m), samples)
	// The final line's keys are fixed, so a run that lost too much CPU to
	// other guests is marked here and on stderr.
	fmt.Printf("  steal_exceeded=%v (%.1f%% of the host CPU stolen over the window, limit %.0f%%)\n", m.steal > maxSteal, 100*m.steal, 100*maxSteal)
	if m.steal > maxSteal {
		fmt.Fprintf(os.Stderr, "dfgbench: warning: steal_exceeded: %.1f%% of the host CPU was stolen over the timed window; discard this run from comparisons\n", 100*m.steal)
	}
	fmt.Printf("  setups_s=%v\n", m.setups)
	fmt.Printf("  discarded for steal: set-ups %v, windows %v (steal shares)\n", m.stolenSetups, m.stolenWindows)
	f := m.faults
	names := make([]string, 0, len(f.PerBackend))
	for n := range f.PerBackend {
		names = append(names, n)
	}
	sort.Strings(names)
	var per []string
	for _, n := range names {
		per = append(per, fmt.Sprintf("%s=%d", n, f.PerBackend[n]))
	}
	fmt.Printf("  frontier window delta: backend_attempts=%d backend_errors=%d retries=%d routed_ok=%d routed_err=%d dials=%d served_by{%s}\n",
		f.Requests, f.Errors, f.Retries, f.RoutedOK, f.RoutedErr, f.Dials, strings.Join(per, " "))
	fmt.Printf("  client re-sends=%d set-up failures=%d golden-gate re-sends=%d\n", m.retries, m.setupFailed, m.gateRetries)
	fmt.Printf("  tiers: compute=%d lru=%d store=%d\n", m.tiers["compute"], m.tiers["lru"], m.tiers["store"])
	for msg, n := range m.errs {
		fmt.Printf("  failed x%d: %s\n", n, msg)
	}
	printTable("fault counters", faultMetrics(m), nil)
}

func printTable(title string, ms map[string]metric, samples map[string]int) {
	fmt.Printf("  %s:\n", title)
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := ms[k]
		if n, ok := samples[k]; ok {
			fmt.Printf("    %-34s %14.4f %-6s n=%d\n", k, v.Value, v.Unit, n)
		} else {
			fmt.Printf("    %-34s %14.4f %s\n", k, v.Value, v.Unit)
		}
	}
}
