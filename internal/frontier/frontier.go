// Package frontier routes analysis requests across dfg-worker backends over
// the wire protocol. Routing is by rendezvous (highest-random-weight) hash
// of the program's content address: every backend scores the key by a
// mixed hash of (backend name, key), and the highest score owns it, so a
// given program lands on the same worker's caches and store every time.
// Identical in-flight requests are deduplicated by a singleflight group,
// backends are health-checked in the background, and a failed backend is
// retried transparently on the next backend in score order. dfg-serve
// routes every request through Analyze when configured with -backends,
// a single /analyze and each /analyze/batch slot alike. Failover and
// hedging are one walk over the key's backends (route).
//
// Beyond routing, the frontier is the durability and tail-latency layer:
//
//   - Replication (Config.Replicas > 1): every artifact computed by a
//     backend is pushed asynchronously (wire StorePut) into the
//     stores of the key's other owners (its top R scores), so a worker
//     that loses its disk is covered by replicas that already hold its
//     keyspace. When a read is served off-primary (failover), the bytes
//     are pushed back to the owners that should have had them — read
//     repair.
//   - Hedging (Config.Hedge): a request that outlives the observed p99
//     latency is re-issued to the key's next replica; the first result
//     wins and the loser is cancelled, never double-counted. Hedge-safe
//     cancellation in the wire client guarantees the loser's connection is
//     discarded rather than reused mid-request, and closing it cancels the
//     loser's analysis on its worker.
//   - Hot add/remove: AddBackend/RemoveBackend swap in a rebuilt backend
//     set at runtime; identities are stable names, so an added backend
//     takes only the keys it now scores highest on, and a removed one
//     gives up only its own keys.
package frontier

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfg/internal/pipeline"
	"dfg/internal/wire"
)

// Config parameterizes New.
type Config struct {
	Backends []string // worker addresses, host:port

	// Names optionally gives each backend a stable identity, aligned with
	// Backends. Placement hashes names, not addresses, so a worker that
	// comes back on a different port (or is re-addressed behind a load
	// balancer) keeps owning the same keys — and keeps hitting its own
	// store. Empty means the addresses are the names.
	Names []string

	// Replicas is the artifact replication factor R: every computed
	// artifact is pushed to the key's top R owners. <=1 disables
	// replication (the pre-replication behavior).
	Replicas int

	// Hedge enables tail-latency hedging: a request still unanswered after
	// the hedge delay is raced against the key's next replica.
	Hedge bool
	// HedgeDelay pins the hedge delay. Zero derives it adaptively from the
	// observed p99 of recent successful requests (the production default;
	// tests pin a fixed delay for determinism).
	HedgeDelay time.Duration

	DialTimeout    time.Duration // per-backend connection + handshake budget; <=0 means 2s
	HealthInterval time.Duration // background ping cadence; <=0 means 2s
	PoolSize       int           // idle wire connections kept per backend; <=0 means 8
	// MaxConns bounds *total* outstanding connections per backend
	// (checked out + idle). <=0 means 2×PoolSize.
	MaxConns int

	// Dialer overrides connection establishment (tests count dials or
	// inject failures). nil means wire.Dial with the pipeline schema.
	Dialer func(addr string) (*wire.Client, error)
}

func (c *Config) defaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 2 * c.PoolSize
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
}

// backendRec is one configured worker: its connection pool, health bit, and
// counters (exported via /statsz and expvar).
type backendRec struct {
	name    string
	addr    string
	seed    uint64 // mix64(hash64(name)): the name's half of every score
	pool    *clientPool
	healthy atomic.Bool
	reqs    atomic.Int64 // items attempted on this backend
	errs    atomic.Int64 // transport/protocol failures
}

// routeTable is an immutable routing snapshot: the backend set.
// Mutations (AddBackend, RemoveBackend) build a new table and swap the
// pointer, so readers never lock.
type routeTable struct {
	backends []*backendRec
}

// pushTask is one queued replication (or read-repair) push.
type pushTask struct {
	key     string
	payload []byte
	targets []*backendRec
}

const (
	replQueueDepth  = 256 // queued pushes before new ones are dropped
	replPushWorkers = 2
	latWindow       = 512 // recent-latency samples kept for p99 derivation
	minHedgeSamples = 32  // no adaptive hedging until this many observations
)

// Frontier routes items across the configured backends.
type Frontier struct {
	cfg Config
	sf  flightGroup
	lat latencyRing

	tableMu sync.Mutex // serializes table mutations
	tbl     atomic.Pointer[routeTable]

	pushCh       chan pushTask
	pushMu       sync.Mutex
	pushInflight map[string]bool
	pushPending  atomic.Int64

	retries       atomic.Int64 // failovers to a further replica
	dedups        atomic.Int64 // singleflight coalesced requests
	routedOK      atomic.Int64
	routedErr     atomic.Int64 // items that exhausted every replica
	hedges        atomic.Int64 // hedge requests launched
	hedgeWins     atomic.Int64 // hedges that beat the primary
	sharedRetries atomic.Int64 // singleflight followers retrying a leader's error
	replPushed    atomic.Int64 // replication pushes enqueued
	replErrors    atomic.Int64 // pushes that failed (target down, store refused)
	replDropped   atomic.Int64 // pushes dropped because the queue was full
	readRepairs   atomic.Int64 // repair pushes after an off-primary read
}

// New builds the routing state and starts the health checker and
// replication workers, which run until ctx is cancelled.
func New(ctx context.Context, cfg Config) *Frontier {
	cfg.defaults()
	f := &Frontier{
		cfg:          cfg,
		pushCh:       make(chan pushTask, replQueueDepth),
		pushInflight: make(map[string]bool),
	}
	recs := make([]*backendRec, 0, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		name := addr
		if i < len(cfg.Names) && cfg.Names[i] != "" {
			name = cfg.Names[i]
		}
		recs = append(recs, f.newBackend(name, addr))
	}
	f.tbl.Store(&routeTable{backends: recs})
	go f.healthLoop(ctx)
	if cfg.Replicas > 1 {
		for i := 0; i < replPushWorkers; i++ {
			go f.pushLoop(ctx)
		}
	}
	return f
}

func (f *Frontier) newBackend(name, addr string) *backendRec {
	dial := f.cfg.Dialer
	if dial == nil {
		dial = func(a string) (*wire.Client, error) {
			return wire.Dial(a, wire.ClientOptions{
				Schema:      pipeline.ReportSchemaVersion,
				DialTimeout: f.cfg.DialTimeout,
			})
		}
	}
	rec := &backendRec{
		name: name,
		addr: addr,
		seed: mix64(hash64(name)),
		pool: newClientPool(addr, dial, f.cfg.PoolSize, f.cfg.MaxConns),
	}
	rec.healthy.Store(true) // optimistic; the first failure or ping corrects it
	return rec
}

func (f *Frontier) table() *routeTable { return f.tbl.Load() }

// AddBackend joins a new worker under a stable name. The swap is atomic:
// requests in flight finish on the old table, new requests see the new
// backend set. Only the keys the new backend now scores highest on move,
// about 1/N of them.
func (f *Frontier) AddBackend(name, addr string) error {
	if name == "" || addr == "" {
		return fmt.Errorf("frontier: backend name and addr are required")
	}
	f.tableMu.Lock()
	defer f.tableMu.Unlock()
	old := f.table()
	for _, b := range old.backends {
		if b.name == name {
			return fmt.Errorf("frontier: backend %q already present", name)
		}
	}
	recs := append(append([]*backendRec(nil), old.backends...), f.newBackend(name, addr))
	f.tbl.Store(&routeTable{backends: recs})
	return nil
}

// RemoveBackend drains a worker out of the backend set by name and closes
// its connection pool. Only the removed backend's keys move. Requests that
// raced the removal fail over normally.
func (f *Frontier) RemoveBackend(name string) error {
	f.tableMu.Lock()
	defer f.tableMu.Unlock()
	old := f.table()
	var removed *backendRec
	recs := make([]*backendRec, 0, len(old.backends))
	for _, b := range old.backends {
		if b.name == name {
			removed = b
			continue
		}
		recs = append(recs, b)
	}
	if removed == nil {
		return fmt.Errorf("frontier: no backend named %q", name)
	}
	f.tbl.Store(&routeTable{backends: recs})
	removed.pool.closeAll()
	return nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer. FNV-64a alone leaves short names that
// differ in one byte close together; mixing spreads every input bit over
// the whole word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ranked returns every backend by its rendezvous score for key, highest
// first. A backend's score depends only on its name and the key, so adding
// or removing a backend never reorders the others.
func (t *routeTable) ranked(key string) []*backendRec {
	kh := hash64(key)
	out := make([]*backendRec, len(t.backends))
	scores := make([]uint64, len(t.backends))
	for i, b := range t.backends {
		s := mix64(kh ^ b.seed)
		j := i
		for ; j > 0 && scores[j-1] < s; j-- {
			scores[j], out[j] = scores[j-1], out[j-1]
		}
		scores[j], out[j] = s, b
	}
	return out
}

// replicaSet returns the key's top r owners by score. Ownership ignores
// health — it defines where artifacts *belong*, which must be stable while
// a backend flaps.
func (t *routeTable) replicaSet(key string, r int) []*backendRec {
	if r > len(t.backends) {
		r = len(t.backends)
	}
	if r <= 0 {
		return nil
	}
	return t.ranked(key)[:r]
}

// order returns the backends to try for key, most-preferred first: every
// backend by score, with healthy backends stable-partitioned to the front
// (unhealthy replicas stay as a last resort — a dead health probe must not
// black-hole the keyspace).
func (t *routeTable) order(key string) []*backendRec {
	ordered := t.ranked(key)
	healthy := make([]*backendRec, 0, len(ordered))
	var down []*backendRec
	for _, b := range ordered {
		if b.healthy.Load() {
			healthy = append(healthy, b)
		} else {
			down = append(down, b)
		}
	}
	return append(healthy, down...)
}

// order returns the current table's failover order for key (see
// routeTable.order).
func (f *Frontier) order(key string) []*backendRec { return f.table().order(key) }

// Owner reports the name of the backend holding key's primary replica —
// the highest-scoring backend, ignoring health (ownership must stay stable
// while a backend flaps). Empty when there are no backends. Ownership
// depends only on the stable backend names and the key, so ops tooling and
// tests can predict placement without issuing traffic.
func (f *Frontier) Owner(key string) string {
	owners := f.table().replicaSet(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0].name
}

// ConnBudget is the sum of the backends' connection caps (Config.MaxConns
// each): the most routed requests that can be on the wire at once.
func (f *Frontier) ConnBudget() int {
	n := 0
	for _, b := range f.table().backends {
		n += cap(b.pool.sem)
	}
	return n
}

// Analyze routes one item, deduplicating identical in-flight requests and
// failing over across replicas. The returned Result may still carry
// OK=false for program-level failures (parse errors and the like), which
// are not retried — only transport failures fail over.
func (f *Frontier) Analyze(ctx context.Context, key string, item wire.Item) (wire.Result, error) {
	res, err, shared := f.sf.do(key, func() (wire.Result, error) {
		return f.route(ctx, key, item)
	})
	if shared {
		f.dedups.Add(1)
		if err != nil && ctx.Err() == nil {
			// The leader's error was *its* connection's fate, not ours: a
			// worker killed mid-flight fails the leader, but the artifact
			// is still computable. Retry once outside the group so one dead
			// connection doesn't amplify into N client-visible errors.
			f.sharedRetries.Add(1)
			res, err = f.route(ctx, key, item)
		}
	}
	return res, err
}

// route walks the key's backends in failover order until one answers. It
// launches the first owner, and the next owner whenever an attempt fails
// (a retry). With hedging armed, if the primary is still the only attempt
// when the hedge delay passes, the next owner is launched beside it once (a
// hedge). The first success wins; the other attempt's context is cancelled,
// which discards its connection and keeps it from being counted as served.
// So at most two attempts are in flight, and no backend is tried twice.
func (f *Frontier) route(ctx context.Context, key string, item wire.Item) (wire.Result, error) {
	order := f.table().order(key)
	if len(order) == 0 {
		return wire.Result{}, fmt.Errorf("no backends configured")
	}
	type attempt struct {
		res wire.Result
		err error
		b   *backendRec
	}
	var hedgeTimer <-chan time.Time
	if delay := f.hedgeDelay(); delay > 0 && len(order) > 1 {
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeTimer = t.C
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Two attempts at most are ever in flight, so an attempt that finishes
	// after the walk has returned still has room to send.
	ch := make(chan attempt, 2)
	try := func(b *backendRec) {
		res, err := f.tryBackend(rctx, b, item)
		ch <- attempt{res: res, err: err, b: b}
	}
	next, failed := 0, 0
	launch := func() *backendRec {
		b := order[next]
		next++
		if hedgeTimer == nil {
			try(b) // nothing can race this attempt, so it runs on this goroutine
		} else {
			go try(b)
		}
		return b
	}
	launch()
	var hedge *backendRec
	for {
		select {
		case <-hedgeTimer:
			if next == 1 { // the primary is still the only attempt
				f.hedges.Add(1)
				hedge = launch()
			}
		case a := <-ch:
			if a.err == nil {
				cancel() // release the loser now; its connection is discarded
				if a.b == hedge {
					f.hedgeWins.Add(1)
				}
				f.routedOK.Add(1)
				f.maybeReplicate(key, a.b, a.res)
				return a.res, nil
			}
			if err := ctx.Err(); err != nil {
				return wire.Result{}, err
			}
			failed++
			if next < len(order) {
				f.retries.Add(1)
				launch()
			} else if failed == len(order) {
				f.routedErr.Add(1)
				return wire.Result{}, fmt.Errorf("all %d backend attempt(s) failed: %w", failed, a.err)
			}
		case <-ctx.Done():
			return wire.Result{}, ctx.Err()
		}
	}
}

// hedgeDelay returns the armed hedge delay, or 0 when hedging should not
// fire (disabled, or not enough latency samples yet for the adaptive p99).
func (f *Frontier) hedgeDelay() time.Duration {
	if !f.cfg.Hedge {
		return 0
	}
	if f.cfg.HedgeDelay > 0 {
		return f.cfg.HedgeDelay
	}
	d := f.lat.p99()
	if d <= 0 {
		return 0
	}
	// Floor keeps in-memory-cache-hit latencies (microseconds) from turning
	// every compute request into a hedge.
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// tryBackend sends item to b, managing its pool and health bit. A failure
// caused by our own context (hedge loser cancelled, caller gone) does not
// penalize the backend's health or error counters; the cancelled client is
// broken, so put closes it, and the closed connection cancels the item on
// the worker.
func (f *Frontier) tryBackend(ctx context.Context, b *backendRec, item wire.Item) (wire.Result, error) {
	b.reqs.Add(1)
	start := time.Now()
	var res wire.Result
	c, err := b.pool.get(ctx)
	if err == nil {
		res, err = c.Analyze(ctx, item)
		b.pool.put(c)
	}
	if err != nil {
		if ctx.Err() == nil {
			b.errs.Add(1)
			b.healthy.Store(false)
		}
		return wire.Result{}, err
	}
	b.healthy.Store(true)
	f.lat.observe(time.Since(start))
	return res, nil
}

// maybeReplicate decides whether a served result should be pushed into
// other owners' stores, and enqueues the push. Compute-tier results are the
// replication path: the artifact exists on exactly one disk until it is
// pushed. Off-primary reads (a failover or hedge served by a backend that
// is not the key's first owner) are the read-repair path: the owners ahead
// of the server were missing or down, so they get the bytes re-pushed —
// which is what refills a worker whose disk was wiped.
func (f *Frontier) maybeReplicate(key string, served *backendRec, res wire.Result) {
	if f.cfg.Replicas <= 1 || !res.OK || res.Key == "" || len(res.Report) == 0 {
		return
	}
	owners := f.table().replicaSet(key, f.cfg.Replicas)
	targets := make([]*backendRec, 0, len(owners))
	servedIsPrimary := false
	for i, b := range owners {
		if b == served {
			servedIsPrimary = i == 0
			continue
		}
		targets = append(targets, b)
	}
	switch {
	case res.Tier == "compute":
		f.enqueuePush(res.Key, res.Report, targets, &f.replPushed)
	case !servedIsPrimary:
		f.enqueuePush(res.Key, res.Report, targets, &f.readRepairs)
	}
}

// enqueuePush hands a push to the replication workers without blocking the
// serving path: a full queue drops the push (the artifact still exists
// where it was computed; the next read-repair gets another chance).
// In-flight keys are deduplicated so a hot key does not flood the queue.
func (f *Frontier) enqueuePush(key string, payload []byte, targets []*backendRec, counter *atomic.Int64) {
	if len(targets) == 0 {
		return
	}
	f.pushMu.Lock()
	if f.pushInflight[key] {
		f.pushMu.Unlock()
		return
	}
	f.pushInflight[key] = true
	f.pushMu.Unlock()
	f.pushPending.Add(1)
	select {
	case f.pushCh <- pushTask{key: key, payload: payload, targets: targets}:
		counter.Add(1)
	default:
		f.replDropped.Add(1)
		f.pushPending.Add(-1)
		f.clearInflight(key)
	}
}

func (f *Frontier) clearInflight(key string) {
	f.pushMu.Lock()
	delete(f.pushInflight, key)
	f.pushMu.Unlock()
}

// pushLoop drains the replication queue until ctx is cancelled.
func (f *Frontier) pushLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-f.pushCh:
			for _, b := range t.targets {
				f.pushOne(ctx, b, t.key, t.payload)
			}
			f.clearInflight(t.key)
			f.pushPending.Add(-1)
		}
	}
}

// pushOne delivers one StorePut. Push failures never mark the backend
// unhealthy: the analysis path's own traffic is the health signal.
func (f *Frontier) pushOne(ctx context.Context, b *backendRec, key string, payload []byte) {
	pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	c, err := b.pool.get(pctx)
	if err != nil {
		f.replErrors.Add(1)
		return
	}
	if err := c.StorePut(pctx, key, payload); err != nil {
		f.replErrors.Add(1)
	}
	b.pool.put(c)
}

// FlushReplication blocks until every enqueued push has been attempted
// (tests use it to make replication deterministic before asserting on
// replica stores).
func (f *Frontier) FlushReplication(ctx context.Context) error {
	for {
		if f.pushPending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// healthLoop pings every backend on a fixed cadence, flipping health bits.
func (f *Frontier) healthLoop(ctx context.Context) {
	t := time.NewTicker(f.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			f.closePools()
			return
		case <-t.C:
		}
		for _, b := range f.table().backends {
			pctx, cancel := context.WithTimeout(ctx, f.cfg.DialTimeout)
			err := b.ping(pctx)
			cancel()
			b.healthy.Store(err == nil)
		}
	}
}

func (f *Frontier) closePools() {
	for _, b := range f.table().backends {
		b.pool.closeAll()
	}
}

// ping checks liveness over a pooled connection. A probe cut short by its
// own context — the pool saturated by real traffic, or the round-trip
// outliving the probe budget on a starved host — is inconclusive, not
// evidence of death: reporting healthy avoids flapping every backend at
// once when the prober itself is starved. Only an error with the context
// still live (refused dial, reset, protocol fault) marks the backend down.
func (b *backendRec) ping(ctx context.Context) error {
	c, err := b.pool.get(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	err = c.Ping(ctx)
	b.pool.put(c)
	if err != nil && ctx.Err() != nil {
		return nil
	}
	return err
}

// Stats renders the frontier's counters for /statsz and expvar.
type Stats struct {
	Backends      []BackendStats `json:"backends"`
	Replicas      int            `json:"replicas"`
	Retries       int64          `json:"retries"`
	Dedups        int64          `json:"singleflight_dedups"`
	RoutedOK      int64          `json:"routed_ok"`
	RoutedErr     int64          `json:"routed_err"`
	Hedges        int64          `json:"hedges"`
	HedgeWins     int64          `json:"hedge_wins"`
	HedgeDelayMS  float64        `json:"hedge_delay_ms"`
	SharedRetries int64          `json:"shared_error_retries"`
	ReplPushed    int64          `json:"repl_pushed"`
	ReplErrors    int64          `json:"repl_errors"`
	ReplDropped   int64          `json:"repl_dropped"`
	ReadRepairs   int64          `json:"read_repairs"`
}

type BackendStats struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Dials    int64  `json:"dials"`
}

func (f *Frontier) Stats() Stats {
	s := Stats{
		Replicas:      f.cfg.Replicas,
		Retries:       f.retries.Load(),
		Dedups:        f.dedups.Load(),
		RoutedOK:      f.routedOK.Load(),
		RoutedErr:     f.routedErr.Load(),
		Hedges:        f.hedges.Load(),
		HedgeWins:     f.hedgeWins.Load(),
		HedgeDelayMS:  float64(f.hedgeDelay()) / float64(time.Millisecond),
		SharedRetries: f.sharedRetries.Load(),
		ReplPushed:    f.replPushed.Load(),
		ReplErrors:    f.replErrors.Load(),
		ReplDropped:   f.replDropped.Load(),
		ReadRepairs:   f.readRepairs.Load(),
	}
	for _, b := range f.table().backends {
		s.Backends = append(s.Backends, BackendStats{
			Name:     b.name,
			Addr:     b.addr,
			Healthy:  b.healthy.Load(),
			Requests: b.reqs.Load(),
			Errors:   b.errs.Load(),
			Dials:    b.pool.dials.Load(),
		})
	}
	return s
}

// latencyRing keeps the last latWindow successful request durations for
// adaptive hedge-delay derivation. Hedging wants the p99 of *recent*
// traffic — a fixed window of samples, not an all-time histogram, so the
// delay tracks the workload as it shifts between cache-hit and compute
// regimes.
type latencyRing struct {
	mu  sync.Mutex
	buf [latWindow]time.Duration
	n   int // total observations (monotonic)
}

func (l *latencyRing) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%latWindow] = d
	l.n++
	l.mu.Unlock()
}

// p99 returns the 99th percentile of the window, or 0 until
// minHedgeSamples observations exist (hedging on noise is worse than not
// hedging).
func (l *latencyRing) p99() time.Duration {
	l.mu.Lock()
	if l.n < minHedgeSamples {
		l.mu.Unlock()
		return 0
	}
	n := l.n
	if n > latWindow {
		n = latWindow
	}
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	return tmp[n*99/100]
}

// clientPool keeps a bounded stack of idle negotiated connections to one
// backend and bounds *total* outstanding connections (checked out + idle)
// with a semaphore. The idle cap alone is not a connection bound: before
// the semaphore, any burst past the free list dialed unconditionally, so a
// 64-way burst opened 64 sockets per backend and the cap only governed how
// many survived as idle afterwards.
type clientPool struct {
	addr  string
	dial  func(addr string) (*wire.Client, error)
	max   int           // idle connections kept
	sem   chan struct{} // capacity = total outstanding bound
	dials atomic.Int64

	mu     sync.Mutex
	free   []*wire.Client
	closed bool
}

func newClientPool(addr string, dial func(string) (*wire.Client, error), idleMax, totalMax int) *clientPool {
	if totalMax < idleMax {
		totalMax = idleMax
	}
	return &clientPool{addr: addr, dial: dial, max: idleMax, sem: make(chan struct{}, totalMax)}
}

// get returns a negotiated connection, blocking (up to ctx) while the
// backend already has totalMax connections outstanding.
func (p *clientPool) get(ctx context.Context) (*wire.Client, error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		return nil, fmt.Errorf("frontier: pool for %s is closed", p.addr)
	}
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	p.dials.Add(1)
	c, err := p.dial(p.addr)
	if err != nil {
		<-p.sem
		return nil, err
	}
	return c, nil
}

// put returns a connection to the pool (or discards it if broken, the
// idle cap is reached, or the pool closed) and releases its semaphore slot.
func (p *clientPool) put(c *wire.Client) {
	defer func() { <-p.sem }()
	if c.Broken() {
		c.Close()
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.free) >= p.max {
		c.Close()
		return
	}
	p.free = append(p.free, c)
}

func (p *clientPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range p.free {
		c.Close()
	}
	p.free = nil
}

// flightGroup is a minimal singleflight: concurrent do calls with the same
// key share one execution (stdlib-only stand-in for x/sync/singleflight).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	wg  sync.WaitGroup
	res wire.Result
	err error
}

// do runs fn once per key at a time; duplicate callers block and share the
// result. shared reports whether this caller piggybacked — and a shared
// *error* is the leader's, not necessarily the follower's: callers decide
// whether to retry outside the group (Analyze does, once).
func (g *flightGroup) do(key string, fn func() (wire.Result, error)) (res wire.Result, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.res, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.res, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.res, c.err, false
}
