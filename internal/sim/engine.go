// Package sim contains the experiment layer: run specifications, a
// memoising engine, and one runner per figure of the paper's evaluation
// (Figures 1–10), each producing paper-style tables.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/codesign"
	"repro/internal/foundry"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Workload identifies one column of the paper's charts: a homogeneous
// application or the multiprogrammed Mix.
type Workload struct {
	// Name is the display name ("DB", ..., "Mixed").
	Name string
	// Apps lists the applications, cycled across cores.
	Apps []string
}

// PaperWorkloads returns the chart columns: the four applications and,
// when cmp is true, the Mixed workload (which only exists on the CMP).
func PaperWorkloads(cmpMachine bool) []Workload {
	ws := []Workload{
		{Name: "DB", Apps: []string{"DB"}},
		{Name: "TPC-W", Apps: []string{"TPC-W"}},
		{Name: "jApp", Apps: []string{"jApp"}},
		{Name: "Web", Apps: []string{"Web"}},
	}
	if cmpMachine {
		ws = append(ws, Workload{Name: "Mixed", Apps: []string{"DB", "TPC-W", "jApp", "Web"}})
	}
	return ws
}

// WorkloadByName resolves a paper workload name case-insensitively
// ("DB", "TPC-W", "jApp", "Web", and — when cmpMachine — "Mixed").
// Names of the form "trace:<id>" resolve to a recorded-trace replay of
// the corpus entry with that content hash; whether the id actually
// exists is checked when sources are built (cmp.SourcesFor), since
// workers may still need to fetch it. Foundry profile names
// ("Microservice", "Serverless") and adversarial generator names
// ("adv:<scheme>@<seed>[x<iters>]") resolve to homogeneous workloads of
// that profile.
func WorkloadByName(name string, cmpMachine bool) (Workload, bool) {
	if id, ok := strings.CutPrefix(name, cmp.TraceWorkloadPrefix); ok && id != "" {
		return Workload{Name: name, Apps: []string{name}}, true
	}
	if strings.HasPrefix(name, foundry.Prefix) {
		if _, err := foundry.ParseName(name); err != nil {
			return Workload{}, false
		}
		return Workload{Name: name, Apps: []string{name}}, true
	}
	for _, w := range PaperWorkloads(cmpMachine) {
		if strings.EqualFold(w.Name, name) {
			return w, true
		}
	}
	for _, n := range workload.FoundryProfileNames() {
		if strings.EqualFold(n, name) {
			return Workload{Name: n, Apps: []string{n}}, true
		}
	}
	return Workload{}, false
}

// RunSpec describes one simulation run. The zero value is not runnable;
// start from the Engine's defaults via Run options.
type RunSpec struct {
	Workload Workload
	Cores    int
	// Scheme is the prefetcher registry name ("none", "nl-miss", ...).
	Scheme string
	// Bypass enables the Section 7 L2-bypass install policy.
	Bypass bool
	// Oracle eliminates miss super-categories (Figure 4).
	Oracle [isa.NumSuperCategories]bool
	// L1I/L2 override the default geometries when non-zero.
	L1I cache.Config
	L2  cache.Config
	// TableEntries overrides the discontinuity table size when > 0
	// (Figure 10); only meaningful with Scheme "discontinuity".
	TableEntries int
	// PrefetchAhead overrides the discontinuity prefetch-ahead distance
	// when > 0 (ablation A3).
	PrefetchAhead int
	// NoCounter disables the discontinuity table's eviction counter
	// (ablation A1).
	NoCounter bool
	// NoRecentFilter disables the recent-demand filter (ablation A2).
	NoRecentFilter bool
	// QueueFIFO issues prefetches oldest-first (ablation A4).
	QueueFIFO bool
	// L2UsefulnessFilter enables the Luk & Mowry re-prefetch filter
	// (ablation A6).
	L2UsefulnessFilter bool
	// ConfidenceFilter enables the Haga et al. confidence filter on the
	// discontinuity table and disables prefetch tag probes (ablation A7).
	ConfidenceFilter bool
	// OffChipGBps overrides the off-chip bandwidth when > 0 (ablation
	// A8; defaults are 10 GB/s single-core, 20 GB/s CMP).
	OffChipGBps float64
	// L1IPolicy overrides the L1-I replacement policy (ablation A9).
	L1IPolicy cache.Policy
	// ModelWritebacks enables dirty write-back traffic (ablation A10).
	ModelWritebacks bool
	// InsertPolicy selects the recency depth for prefetched-line
	// insertion in L1-I and L2 ("", "mru", "mid", "lru"); see
	// codesign.ParseInsertion. Empty/default keeps the historical MRU
	// behaviour (and the historical memo key).
	InsertPolicy string
	// TLBFill enables prefetch-triggered I-TLB fill ("", "none",
	// "primary", "secondary"); see codesign.ParseTLBFill.
	TLBFill string
	// WrongPath enables wrong-path fetch modelling ("", "off",
	// "train[:depth]", "pollute[:depth]"); see codesign.ParseWrongPath.
	WrongPath string
	// ForkWarm selects the fork-and-diverge methodology: the warm-up
	// phase runs on a scheme-neutral machine (Scheme "none", no table
	// overrides) and the measurement machine starts from a snapshot of
	// its warmed state, with the scheme under test cold. Specs sharing a
	// warm key (see WarmKey) can then share one warm-up via
	// RunBatchContext. A ForkWarm run is a different methodology from
	// the default two-phase run, so it memoises under a distinct key.
	ForkWarm bool
}

// Key returns a memoisation key covering every field that affects the
// simulation. The service layer uses the same key for in-flight
// deduplication and as the basis of its content-addressed result store.
func (s RunSpec) Key() string { return s.key() }

// key returns a memoisation key covering every field that affects the
// simulation.
func (s RunSpec) key() string {
	k := fmt.Sprintf("%s|%d|%s|%v|%v|%s|%s|%d|%d|%v|%v|%v|%v",
		s.Workload.Name, s.Cores, s.Scheme, s.Bypass, s.Oracle, cacheKey(s.L1I), cacheKey(s.L2),
		s.TableEntries, s.PrefetchAhead, s.NoCounter, s.NoRecentFilter, s.QueueFIFO,
		s.L2UsefulnessFilter) + fmt.Sprintf("|%v|%g|%d|%v", s.ConfidenceFilter, s.OffChipGBps,
		s.L1IPolicy, s.ModelWritebacks)
	// Co-design axes extend the key only when set, so default-policy
	// keys (and the journals/result stores derived from them) are
	// byte-identical to builds that predate these fields.
	if s.InsertPolicy != "" || s.TLBFill != "" || s.WrongPath != "" {
		k += fmt.Sprintf("|ins=%s|tlb=%s|wp=%s", s.InsertPolicy, s.TLBFill, s.WrongPath)
	}
	// Like the co-design axes, ForkWarm extends the key only when set, so
	// default-methodology keys stay byte-identical to historical ones.
	if s.ForkWarm {
		k += "|fork"
	}
	return k
}

// cacheKey writes a cache geometry into a key field by field, in the
// historical `%+v` form so that recorded keys stay valid. A field added
// to cache.Config is in no key until it is written here;
// TestCacheKeyCoversConfig fails until then.
func cacheKey(c cache.Config) string {
	return fmt.Sprintf("{SizeBytes:%d Assoc:%d LineBytes:%d Policy:%s}",
		c.SizeBytes, c.Assoc, c.LineBytes, c.Policy)
}

// warmSpec derives the scheme-neutral warm-up spec for a fork-and-
// diverge run: the machine (workload, cores, geometries, policies)
// stays as specified, while the prefetch scheme and its table/filter
// knobs are neutralised so every member of a warm group builds the
// identical warm machine. ConfidenceFilter is neutralised too — it
// forces a discontinuity prefetcher override even under Scheme "none".
func (s RunSpec) warmSpec() RunSpec {
	w := s
	w.Scheme = "none"
	w.TableEntries = 0
	w.PrefetchAhead = 0
	w.NoCounter = false
	w.NoRecentFilter = false
	w.QueueFIFO = false
	w.ConfidenceFilter = false
	w.ForkWarm = false
	return w
}

// WarmKey identifies the shared warm-up phase of a ForkWarm spec: specs
// with equal warm keys warm identical machines, so RunBatchContext runs
// that warm phase once and forks its snapshot across the group.
func (s RunSpec) WarmKey() string { return s.warmSpec().key() }

// Result carries everything the figures report from one run.
type Result struct {
	Spec    RunSpec
	Total   stats.CoreStats
	PerCore []stats.CoreStats
	// L2InstrOccupancy is the fraction of valid L2 lines holding
	// instructions at the end of the run (pollution diagnostics).
	L2InstrOccupancy float64
	// OffChipTransfers counts line transfers over the off-chip link
	// (lifetime, including warm-up).
	OffChipTransfers uint64
	// Writebacks counts dirty write-back transfers (lifetime; zero
	// unless ModelWritebacks).
	Writebacks uint64
}

// Engine runs simulations with fixed instruction budgets and memoises
// results, since several figures share runs (e.g. the no-prefetch
// baseline appears in Figures 5–9).
type Engine struct {
	// WarmInstrs and MeasureInstrs are per-core instruction budgets.
	WarmInstrs    uint64
	MeasureInstrs uint64
	// Seed drives all workload streams.
	Seed uint64
	// Verbose, when non-nil, receives a line per completed run.
	Verbose func(string)

	mu       sync.Mutex
	memo     map[string]Result
	inflight map[string]*inflightRun
	counters Counters
}

// inflightRun is the singleflight slot for one spec key: the first
// caller simulates, later callers wait on done and share the outcome.
type inflightRun struct {
	done chan struct{}
	res  Result
	err  error
}

// Counters exposes the engine's run-sharing behaviour for metrics:
// every Run resolves as exactly one of a fresh simulation, a memo hit,
// or a wait on an identical in-flight simulation.
type Counters struct {
	// Simulations counts actual simulation executions.
	Simulations uint64
	// MemoHits counts runs answered from the in-memory result cache.
	MemoHits uint64
	// DedupWaits counts runs that joined an identical in-flight
	// simulation instead of starting their own.
	DedupWaits uint64
}

// Counters returns a snapshot of the engine's run-sharing counters.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters
}

// NewEngine returns an engine with the given per-core budgets.
func NewEngine(warm, measure uint64, seed uint64) *Engine {
	return &Engine{
		WarmInstrs:    warm,
		MeasureInstrs: measure,
		Seed:          seed,
		memo:          make(map[string]Result),
		inflight:      make(map[string]*inflightRun),
	}
}

// DefaultEngine returns an engine sized for interactive use: large
// enough for stable shapes, small enough to run all figures in minutes.
func DefaultEngine() *Engine {
	return NewEngine(1_500_000, 3_000_000, 1)
}

// Run executes (or recalls) the simulation described by spec.
// Individual simulations are single-threaded and deterministic;
// concurrent Run calls are safe, and identical concurrent specs share
// one simulation (see RunContext).
func (e *Engine) Run(spec RunSpec) (Result, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: the simulation stops early and
// returns ctx.Err() when ctx fires. Concurrent calls with the same spec
// are deduplicated: one caller simulates, the rest wait for its result
// (or their own ctx, whichever comes first). A run abandoned because
// the simulating caller's ctx fired is not memoised, so a later call
// retries from scratch.
func (e *Engine) RunContext(ctx context.Context, spec RunSpec) (Result, error) {
	return e.runShared(ctx, spec, func(ctx context.Context) (Result, error) {
		return e.simulate(ctx, spec)
	})
}

// runShared resolves spec through the memo and singleflight layers:
// a cached result is returned immediately; a caller that finds an
// identical spec in flight waits for it; otherwise the caller becomes
// the leader and executes simFn. Waiters that see the leader abandon
// the run because the LEADER's context fired — not their own — loop
// back and retry (re-checking memo/inflight, possibly becoming the new
// leader) instead of inheriting a cancellation that was never theirs.
func (e *Engine) runShared(ctx context.Context, spec RunSpec, simFn func(context.Context) (Result, error)) (Result, error) {
	key := spec.key()
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		e.mu.Lock()
		if r, ok := e.memo[key]; ok {
			e.counters.MemoHits++
			e.mu.Unlock()
			return r, nil
		}
		if fl, ok := e.inflight[key]; ok {
			e.counters.DedupWaits++
			e.mu.Unlock()
			select {
			case <-fl.done:
				if (errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)) && ctx.Err() == nil {
					// The leader was cancelled but this waiter wasn't:
					// the leader has already removed the inflight entry,
					// so retry (and possibly lead) rather than fail.
					continue
				}
				return fl.res, fl.err
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		fl := &inflightRun{done: make(chan struct{})}
		if e.inflight == nil {
			e.inflight = make(map[string]*inflightRun)
		}
		e.inflight[key] = fl
		e.counters.Simulations++
		e.mu.Unlock()

		res, err := simFn(ctx)

		e.mu.Lock()
		if err == nil {
			if e.memo == nil {
				e.memo = make(map[string]Result)
			}
			e.memo[key] = res
		}
		delete(e.inflight, key)
		e.mu.Unlock()
		fl.res, fl.err = res, err
		close(fl.done)
		if err == nil && e.Verbose != nil {
			e.Verbose(fmt.Sprintf("ran %-6s cores=%d scheme=%-14s bypass=%-5v IPC=%.3f L1I=%.3f%%",
				spec.Workload.Name, spec.Cores, spec.Scheme, spec.Bypass,
				res.Total.IPC(), 100*res.Total.L1I.PerInstr(res.Total.Instructions)))
		}
		return res, err
	}
}

// simulate executes spec's warm + measure phases under ctx, selecting
// the methodology: the default path warms and measures one machine; the
// ForkWarm path warms a scheme-neutral machine and measures from a
// restored snapshot of it.
func (e *Engine) simulate(ctx context.Context, spec RunSpec) (Result, error) {
	if spec.ForkWarm {
		return e.simulateForked(ctx, spec)
	}
	sys, err := e.buildSystem(spec)
	if err != nil {
		return Result{}, err
	}
	if err := sys.RunContext(ctx, e.WarmInstrs); err != nil {
		return Result{}, err
	}
	sys.ResetStats()
	if err := sys.RunContext(ctx, e.MeasureInstrs); err != nil {
		return Result{}, err
	}
	sys.Finalize()
	return collect(sys, spec), nil
}

// simulateForked is the fork-and-diverge methodology for a single spec:
// warm the scheme-neutral machine, snapshot, measure from the restored
// snapshot. RunBatchContext shares the first two steps across specs
// with equal warm keys; run solo the methodology (and therefore the
// result) is identical, just without the sharing.
func (e *Engine) simulateForked(ctx context.Context, spec RunSpec) (Result, error) {
	snap, err := e.warmSnapshot(ctx, spec.warmSpec())
	if err != nil {
		return Result{}, err
	}
	return e.measureFrom(ctx, spec, snap)
}

// warmSnapshot builds the machine for the (already scheme-neutral) warm
// spec, runs the warm phase, and captures the machine state.
func (e *Engine) warmSnapshot(ctx context.Context, warm RunSpec) (*cmp.Snapshot, error) {
	sys, err := e.buildSystem(warm)
	if err != nil {
		return nil, err
	}
	if err := sys.RunContext(ctx, e.WarmInstrs); err != nil {
		return nil, err
	}
	return sys.Snapshot()
}

// measureFrom builds spec's full-configuration machine, restores the
// shared warm snapshot into it (the scheme under test starts cold —
// the snapshot's scheme is "none"), and runs the measurement phase.
func (e *Engine) measureFrom(ctx context.Context, spec RunSpec, snap *cmp.Snapshot) (Result, error) {
	sys, err := e.buildSystem(spec)
	if err != nil {
		return Result{}, err
	}
	if err := sys.Restore(snap); err != nil {
		return Result{}, err
	}
	sys.ResetStats()
	if err := sys.RunContext(ctx, e.MeasureInstrs); err != nil {
		return Result{}, err
	}
	sys.Finalize()
	return collect(sys, spec), nil
}

// collect gathers a finalized machine's statistics into a Result.
func collect(sys *cmp.System, spec RunSpec) Result {
	res := Result{
		Spec:             spec,
		Total:            sys.TotalStats(),
		L2InstrOccupancy: sys.Mem().InstrOccupancy(),
		OffChipTransfers: sys.Mem().Port().Transfers(),
		Writebacks:       sys.Mem().Writebacks(),
	}
	for i := 0; i < spec.Cores; i++ {
		res.PerCore = append(res.PerCore, *sys.CoreStats(i))
	}
	return res
}

// buildSystem translates spec into a machine configuration and
// constructs the system (no simulation phases are run).
func (e *Engine) buildSystem(spec RunSpec) (*cmp.System, error) {
	cfg := cmp.DefaultConfig(spec.Cores)
	cfg.PrefetcherName = spec.Scheme
	cfg.FrontEnd.BypassL2 = spec.Bypass
	cfg.FrontEnd.Oracle = spec.Oracle
	if spec.L1I.SizeBytes > 0 {
		cfg.FrontEnd.L1I = spec.L1I
	}
	if spec.L2.SizeBytes > 0 {
		cfg.Mem.L2 = spec.L2
	}
	// The memory system is line-addressed, so a non-default line size in
	// either override is applied hierarchy-wide (L1-I, L1-D, L2, off-chip
	// unit) — resolved after BOTH overrides so an L2 override cannot
	// clobber an L1-I line-size propagation, and an L2-only line size
	// propagates at all. Overrides that disagree are rejected rather
	// than silently mismatched.
	l1lb, l2lb := cfg.FrontEnd.L1I.LineBytes, cfg.Mem.L2.LineBytes
	switch {
	case spec.L1I.SizeBytes > 0 && spec.L2.SizeBytes > 0 && l1lb != l2lb:
		return nil, fmt.Errorf("sim: inconsistent line sizes: L1I override %d B vs L2 override %d B", l1lb, l2lb)
	case spec.L1I.SizeBytes > 0:
		// Overridden (and, if both were set, agreeing) L1I line size
		// rules every level, including the non-overridden ones.
		cfg.Core.L1D.LineBytes = l1lb
		cfg.Mem.L2.LineBytes = l1lb
		cfg.Mem.Port.LineBytes = l1lb
	case spec.L2.SizeBytes > 0:
		cfg.FrontEnd.L1I.LineBytes = l2lb
		cfg.Core.L1D.LineBytes = l2lb
		cfg.Mem.Port.LineBytes = l2lb
	}

	cfg.FrontEnd.NoRecentFilter = spec.NoRecentFilter
	cfg.FrontEnd.QueueFIFO = spec.QueueFIFO
	cfg.FrontEnd.L2UsefulnessFilter = spec.L2UsefulnessFilter
	cfg.FrontEnd.NoTagProbe = spec.ConfidenceFilter
	if spec.OffChipGBps > 0 {
		cfg.Mem.Port.BytesPerCycle = spec.OffChipGBps * 1e9 / 3e9
	}
	if spec.L1IPolicy != cache.LRU {
		cfg.FrontEnd.L1I.Policy = spec.L1IPolicy
	}
	cfg.ModelWritebacks = spec.ModelWritebacks

	ins, err := codesign.ParseInsertion(spec.InsertPolicy)
	if err != nil {
		return nil, err
	}
	cfg.FrontEnd.PrefetchInsert = ins
	cfg.Mem.PrefetchInsert = ins
	tf, err := codesign.ParseTLBFill(spec.TLBFill)
	if err != nil {
		return nil, err
	}
	cfg.FrontEnd.TLBFill = tf
	wp, err := codesign.ParseWrongPath(spec.WrongPath)
	if err != nil {
		return nil, err
	}
	cfg.FrontEnd.WrongPath = wp

	var override func(int) prefetch.Prefetcher
	if spec.TableEntries > 0 || spec.PrefetchAhead > 0 || spec.NoCounter || spec.ConfidenceFilter {
		dcfg := prefetch.DefaultDiscontinuityConfig()
		if spec.TableEntries > 0 {
			dcfg.TableEntries = spec.TableEntries
		}
		if spec.PrefetchAhead > 0 {
			dcfg.PrefetchAhead = spec.PrefetchAhead
		}
		dcfg.NoCounter = spec.NoCounter
		dcfg.ConfidenceFilter = spec.ConfidenceFilter
		override = func(int) prefetch.Prefetcher { return prefetch.NewDiscontinuity(dcfg) }
	}

	srcs, err := cmp.SourcesFor(spec.Workload.Apps, spec.Cores, e.Seed)
	if err != nil {
		return nil, err
	}
	return cmp.New(cfg, srcs, override)
}

// MustRun is Run that panics on error (experiment code uses literal,
// known-good specs).
func (e *Engine) MustRun(spec RunSpec) Result {
	r, err := e.Run(spec)
	if err != nil {
		panic(err)
	}
	return r
}

// figureAbort carries a RunContext error (cancellation or a bad spec)
// out of a figure body; catch converts it back into an error return.
type figureAbort struct{ err error }

// catch recovers a figureAbort raised by mustRun inside a figure body
// and stores its error in *err. Deferred at the top of every figure and
// ablation runner.
func catch(err *error) {
	if p := recover(); p != nil {
		if a, ok := p.(figureAbort); ok {
			*err = a.err
			return
		}
		panic(p)
	}
}

// mustRun is the ctx-aware MustRun used inside figure bodies: instead
// of returning an error at every call site it panics with figureAbort,
// which the runner's deferred catch turns into an error return.
func (e *Engine) mustRun(ctx context.Context, spec RunSpec) Result {
	r, err := e.RunContext(ctx, spec)
	if err != nil {
		panic(figureAbort{err})
	}
	return r
}

// Warm runs the given specs concurrently (bounded by GOMAXPROCS) and
// memoises their results, so subsequent figure runners replay them from
// cache. Simulations are independent and deterministic, so parallel
// warming changes nothing but wall-clock time.
func (e *Engine) Warm(specs []RunSpec) error {
	return e.WarmContext(context.Background(), specs)
}

// WarmContext is Warm with cancellation: it is RunBatchContext at
// GOMAXPROCS workers with no result callback.
func (e *Engine) WarmContext(ctx context.Context, specs []RunSpec) error {
	return e.RunBatchContext(ctx, specs, 0, nil)
}

// RunBatchContext is the engine's one executor for a set of specs. It
// runs them concurrently (bounded by workers; workers < 1 means
// GOMAXPROCS), sharing warm-up work among ForkWarm specs: specs with
// equal warm keys form a group whose scheme-neutral warm phase runs
// ONCE, is snapshotted, and seeds every member's measurement machine via
// restore. Non-ForkWarm specs (and memoised members) resolve through the
// ordinary RunContext path. Specs start in spec order, each once it
// holds a worker slot, and no further spec starts after one has failed:
// the caller is about to discard the batch, so the rest would only burn
// cycles. onResult, when non-nil, receives every started spec's outcome
// as it completes, identified by its index into specs; it must be safe
// for concurrent calls. The returned error is the first failure (results
// already delivered stand).
func (e *Engine) RunBatchContext(ctx context.Context, specs []RunSpec, workers int, onResult func(i int, res Result, err error, elapsed time.Duration)) error {
	return e.RunBatchSlots(ctx, specs, NewSlots(workers), onResult)
}

// Slots is a pool of worker slots: a warm phase or a measurement holds
// one while it runs. Batches that share a pool share its bound.
type Slots chan struct{}

// NewSlots returns a pool of n slots; n < 1 means GOMAXPROCS.
func NewSlots(n int) Slots {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return make(Slots, n)
}

// RunBatchSlots is RunBatchContext with its worker slots drawn from sem,
// which concurrent batches may share: a process running several batches
// at once then keeps sem's bound across all of them, and a batch whose
// last specs leave slots idle hands them to the others.
func (e *Engine) RunBatchSlots(ctx context.Context, specs []RunSpec, sem Slots, onResult func(i int, res Result, err error, elapsed time.Duration)) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	emit := func(i int, res Result, err error, elapsed time.Duration) {
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		if onResult != nil {
			onResult(i, res, err, elapsed)
		}
	}
	// acquire takes a worker slot and reports whether work may start
	// on it; after a failure it hands the slot straight back.
	acquire := func() bool {
		sem <- struct{}{}
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			<-sem
		}
		return !failed
	}
	// start resolves spec i through fn on a new goroutine that holds a
	// worker slot, taken before the goroutine starts. It reports false,
	// starting nothing, once a spec has failed.
	start := func(i int, fn func() (Result, error)) bool {
		if !acquire() {
			return false
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			res, err := fn()
			emit(i, res, err, time.Since(t0))
		}()
		return true
	}
	solo := func(i int) func() (Result, error) {
		return func() (Result, error) { return e.RunContext(ctx, specs[i]) }
	}

	// Group coordinators are lightweight and do NOT hold worker slots;
	// only warm phases and member measurements take them. (A
	// coordinator holding a slot while its members wait for slots would
	// deadlock at workers=1.)
	runGroup := func(members []int) {
		defer wg.Done()
		// Members already memoised need no warm machine; resolve them
		// through the cache and only warm for the rest.
		var todo []int
		for _, i := range members {
			e.mu.Lock()
			_, hit := e.memo[specs[i].key()]
			e.mu.Unlock()
			if !hit {
				todo = append(todo, i)
			} else if !start(i, solo(i)) {
				return
			}
		}
		if len(todo) == 0 || !acquire() {
			return
		}
		warmStart := time.Now()
		e.mu.Lock()
		e.counters.Simulations++
		e.mu.Unlock()
		snap, err := e.warmSnapshot(ctx, specs[todo[0]].warmSpec())
		warmElapsed := time.Since(warmStart)
		<-sem
		if err != nil {
			for _, i := range todo {
				emit(i, Result{}, err, warmElapsed)
			}
			return
		}
		for _, i := range todo {
			measure := func() (Result, error) {
				return e.runShared(ctx, specs[i], func(ctx context.Context) (Result, error) {
					return e.measureFrom(ctx, specs[i], snap)
				})
			}
			if !start(i, measure) {
				return
			}
		}
	}

	groups := make(map[string][]int)
	warmKeys := make([]string, len(specs))
	for i, s := range specs {
		if s.ForkWarm {
			warmKeys[i] = s.WarmKey()
			groups[warmKeys[i]] = append(groups[warmKeys[i]], i)
		}
	}
	for i, s := range specs {
		if !s.ForkWarm {
			if !start(i, solo(i)) {
				break
			}
		} else if members := groups[warmKeys[i]]; members[0] == i {
			wg.Add(1)
			go runGroup(members)
		}
	}
	wg.Wait()
	return firstErr
}

// baseline returns the no-prefetch run for a workload/machine.
func (e *Engine) baseline(ctx context.Context, w Workload, cores int) Result {
	return e.mustRun(ctx, RunSpec{Workload: w, Cores: cores, Scheme: "none"})
}

// pct formats a ratio as a percentage cell.
func pct(f float64, decimals int) string { return stats.Pct(f, decimals) }

// ratio formats an "X" speedup cell.
func ratio(f float64) string { return fmt.Sprintf("%.3fX", f) }

// AllSpecs enumerates every simulation the figure and ablation runners
// perform, so WarmAll can execute them concurrently before the (serial)
// table construction replays them from cache. Drift between this list
// and the runners is harmless — anything missing simply runs serially.
func (e *Engine) AllSpecs() []RunSpec {
	var specs []RunSpec
	add := func(s RunSpec) { specs = append(specs, s) }

	// Figure 1: geometry sweep.
	for _, cfg := range []cache.Config{
		{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		{SizeBytes: 32 << 10, Assoc: 1, LineBytes: 64},
		{SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64},
		{SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64},
		{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 32},
		{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 128},
		{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 256},
		{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64},
		{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64},
		{SizeBytes: 128 << 10, Assoc: 4, LineBytes: 64},
	} {
		for _, w := range PaperWorkloads(false) {
			add(RunSpec{Workload: w, Cores: 1, Scheme: "none", L1I: cfg})
		}
	}
	// Figure 2: L2 capacity sweep.
	for _, size := range []int{1 << 20, 2 << 20, 4 << 20} {
		for _, cores := range []int{1, 4} {
			for _, w := range PaperWorkloads(cores > 1) {
				add(RunSpec{Workload: w, Cores: cores, Scheme: "none",
					L2: cache.Config{SizeBytes: size, Assoc: 4, LineBytes: 64}})
			}
		}
	}
	// Figures 3-10 + ablations: baselines, oracle combos, scheme matrix.
	for _, cores := range []int{1, 4} {
		for _, w := range PaperWorkloads(cores > 1) {
			add(RunSpec{Workload: w, Cores: cores, Scheme: "none"})
			for _, supers := range [][]isa.SuperCategory{
				{isa.SuperSequential}, {isa.SuperBranch}, {isa.SuperFunction},
				{isa.SuperSequential, isa.SuperBranch},
				{isa.SuperSequential, isa.SuperFunction},
				{isa.SuperSequential, isa.SuperBranch, isa.SuperFunction},
			} {
				var oracle [isa.NumSuperCategories]bool
				for _, s := range supers {
					oracle[s] = true
				}
				add(RunSpec{Workload: w, Cores: cores, Scheme: "none", Oracle: oracle})
			}
			for _, scheme := range paperSchemes() {
				add(RunSpec{Workload: w, Cores: cores, Scheme: scheme})
				add(RunSpec{Workload: w, Cores: cores, Scheme: scheme, Bypass: true})
			}
		}
	}
	for _, w := range PaperWorkloads(true) {
		add(RunSpec{Workload: w, Cores: 4, Scheme: "discont-2nl", Bypass: true})
		for _, size := range []int{8192, 4096, 2048, 1024, 512, 256} {
			add(RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true, TableEntries: size})
		}
		// Ablations (the A1 counter-on case is already in the table-size
		// sweep above).
		add(RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true,
			NoCounter: true, TableEntries: 512})
		add(RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true, NoRecentFilter: true})
		for _, n := range []int{1, 2, 4, 8} {
			add(RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true, PrefetchAhead: n})
		}
		add(RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true, QueueFIFO: true})
		for _, scheme := range []string{"target", "markov", "wrong-path"} {
			add(RunSpec{Workload: w, Cores: 4, Scheme: scheme, Bypass: true})
		}
		add(RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true, L2UsefulnessFilter: true})
		add(RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true, ConfidenceFilter: true})
	}
	return specs
}

// WarmAll pre-executes every known experiment spec concurrently.
func (e *Engine) WarmAll() error { return e.Warm(e.AllSpecs()) }

// WarmAllContext is WarmAll with cancellation.
func (e *Engine) WarmAllContext(ctx context.Context) error {
	return e.WarmContext(ctx, e.AllSpecs())
}
