package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cmp"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Endpoint is the worker's side of the lease protocol. *Client speaks
// it over HTTP to a remote coordinator; *Coordinator serves it in
// process, which is how a daemon runs its own sweeps.
type Endpoint interface {
	Register(ctx context.Context, name string) (WorkerView, error)
	Acquire(ctx context.Context, workerID string, wait time.Duration) (*Lease, error)
	Renew(ctx context.Context, leaseID, workerID string) error
	SubmitPoint(ctx context.Context, sweepID, workerID string, res sweep.PointResult) (duplicate bool, err error)
	Complete(ctx context.Context, leaseID, workerID string) error
	Fail(ctx context.Context, leaseID, workerID, reason string) error
}

var (
	_ Endpoint = (*Client)(nil)
	_ Endpoint = (*Coordinator)(nil)
)

// Worker is the execution half of the subsystem: it registers with a
// coordinator, pulls shard leases, runs each lease's points on a
// memoising sim.Engine through sweep.RunPoints, streams every
// completed point back immediately, and renews each lease's heartbeat
// while the shard runs. It holds up to Concurrency leases at once and
// asks for another only while one of its slots is idle, so the tail of
// one lease overlaps the next and fork-warm groups warm side by side. A worker whose heartbeat discovers the lease is
// gone abandons the shard — the coordinator has already reinjected it
// — and any points it delivered anyway are absorbed idempotently.
type Worker struct {
	// Coordinator is the lease protocol endpoint. Required.
	Coordinator Endpoint
	// Name labels the worker in coordinator logs and metrics.
	Name string
	// Concurrency bounds points simulated in parallel across every
	// lease the worker holds. Default 1.
	Concurrency int
	// PollInterval bounds how long one acquire waits for work before
	// the worker asks again; a submission or a reinjection ends the
	// wait at once. Default 500ms.
	PollInterval time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// OnPoint, when non-nil, is called after each point is delivered
	// (test and progress hook).
	OnPoint func(res sweep.PointResult)
	// Corpus, when non-nil, is this worker's local trace cache: before
	// running a lease whose points name trace:<id> workloads, the
	// worker fetches any missing entry from the coordinator's daemon
	// (Coordinator must then be a *Client), verifies it, and registers
	// the cache as a replay provider. Without it, trace points resolve
	// through whatever providers this process registered.
	Corpus *corpus.Store
	// Engines, when non-nil, supplies the engine for each budget/seed
	// combination (a daemon shares its job engines this way). Default:
	// engines the worker creates and owns.
	Engines func(warm, measure, seed uint64) *sim.Engine

	mu         sync.Mutex
	id         string
	engines    map[string]*sim.Engine
	registered bool
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// ID returns the coordinator-assigned worker id (empty before Run
// registers).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// engineFor returns (creating if needed) the engine for one budget/seed
// combination.
func (w *Worker) engineFor(warm, measure, seed uint64) *sim.Engine {
	if w.Engines != nil {
		return w.Engines(warm, measure, seed)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.engines == nil {
		w.engines = make(map[string]*sim.Engine)
	}
	k := fmt.Sprintf("%d|%d|%d", warm, measure, seed)
	e, ok := w.engines[k]
	if !ok {
		e = sim.NewEngine(warm, measure, seed)
		w.engines[k] = e
	}
	return e
}

// EngineCounters sums the run-sharing counters across every engine the
// worker instantiated (tests assert recompute-freedom through this).
func (w *Worker) EngineCounters() sim.Counters {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out sim.Counters
	for _, e := range w.engines {
		c := e.Counters()
		out.Simulations += c.Simulations
		out.MemoHits += c.MemoHits
		out.DedupWaits += c.DedupWaits
	}
	return out
}

// Run registers the worker and processes leases until ctx fires or the
// coordinator quarantines it. Transient coordinator failures are
// absorbed by the client's retry budget; only a spent budget or a
// terminal rejection stops the worker.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == nil {
		return errors.New("dist: worker needs a coordinator endpoint")
	}
	if w.Corpus != nil {
		w.mu.Lock()
		if !w.registered {
			w.registered = true
			cmp.RegisterTraceProvider(w.Corpus.ReplaySource)
		}
		w.mu.Unlock()
	}
	poll := w.PollInterval
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	var reg WorkerView
	var err error
	if c, ok := w.Coordinator.(*Coordinator); ok {
		// The coordinator's own process: see worker.inProcess.
		reg = c.register(w.Name, true)
	} else if reg, err = w.Coordinator.Register(ctx, w.Name); err != nil {
		return fmt.Errorf("dist: register: %w", err)
	}
	w.mu.Lock()
	w.id = reg.ID
	w.mu.Unlock()
	ttl := time.Duration(reg.LeaseTTLMS) * time.Millisecond
	w.logf("dist: worker %s (%s) registered, lease ttl %s", reg.ID, w.Name, ttl)

	// One lease loop per slot; the first loop to stop stops the rest.
	conc := max(w.Concurrency, 1)
	slots := sim.NewSlots(conc)
	loopCtx, stop := context.WithCancel(ctx)
	defer stop()
	errc := make(chan error, conc)
	for range conc {
		go func() {
			errc <- w.leaseLoop(loopCtx, reg.ID, ttl, poll, slots)
			stop()
		}()
	}
	err = <-errc
	for range conc - 1 {
		<-errc
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// leaseLoop acquires and runs one lease at a time. It asks for a lease
// only once a slot is free, so a worker whose slots are all busy takes
// on no more work.
func (w *Worker) leaseLoop(ctx context.Context, workerID string, ttl, poll time.Duration, slots sim.Slots) error {
	for {
		select {
		case slots <- struct{}{}:
			<-slots
		case <-ctx.Done():
			return ctx.Err()
		}
		lease, err := w.Coordinator.Acquire(ctx, workerID, poll)
		if err != nil {
			if errors.Is(err, ErrQuarantined) || ctx.Err() != nil {
				return err
			}
			return fmt.Errorf("dist: acquire: %w", err)
		}
		if lease == nil {
			continue
		}
		if err := w.runLease(ctx, workerID, lease, ttl, slots); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("dist: lease %s: %v", lease.ID, err)
		}
	}
}

// runLease simulates one shard under a heartbeat: points run on the
// worker's shared slots, stream back as they finish, and a renew ticker
// keeps the lease alive. If a renewal reports the lease gone, the
// remaining points are abandoned mid-simulation.
func (w *Worker) runLease(ctx context.Context, workerID string, l *Lease, ttl time.Duration, slots sim.Slots) error {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat at a third of the TTL so one dropped renewal (absorbed
	// by the client's retries) cannot expire the lease.
	hb := ttl / 3
	if hb <= 0 {
		hb = time.Second
	}
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
				if err := w.Coordinator.Renew(leaseCtx, l.ID, workerID); err != nil {
					if errors.Is(err, ErrLeaseGone) {
						w.logf("dist: lease %s expired under us, abandoning shard", l.ID)
					}
					cancel()
					return
				}
			}
		}
	}()

	// Trace-replay points need their container cached locally before
	// any of them simulate; a fetch failure fails the whole lease so
	// the coordinator reinjects it promptly. Points sharing a warm phase
	// fork from one snapshot; each result streams back as soon as its
	// point completes.
	err := w.ensureTraces(leaseCtx, l)
	if err == nil {
		eng := w.engineFor(l.WarmInstrs, l.MeasureInstrs, l.Seed)
		err = sweep.RunPoints(leaseCtx, eng, l.Points, slots, func(res sweep.PointResult) error {
			if _, err := w.Coordinator.SubmitPoint(leaseCtx, l.SweepID, workerID, res); err != nil {
				return fmt.Errorf("dist: submit point %d: %w", res.Point.Index, err)
			}
			if w.OnPoint != nil {
				w.OnPoint(res)
			}
			return nil
		})
	}
	cancel()
	hbWG.Wait()

	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Report the failure so the coordinator reinjects immediately
		// instead of waiting out the TTL; a dead coordinator just means
		// the TTL path handles it.
		failCtx, cancelFail := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelFail()
		if ferr := w.Coordinator.Fail(failCtx, l.ID, workerID, err.Error()); ferr != nil && !errors.Is(ferr, ErrLeaseGone) {
			w.logf("dist: report lease %s failure: %v", l.ID, ferr)
		}
		return err
	}
	if err := w.Coordinator.Complete(ctx, l.ID, workerID); err != nil && !errors.Is(err, ErrLeaseGone) {
		return fmt.Errorf("dist: complete lease %s: %w", l.ID, err)
	}
	return nil
}

// ensureTraces makes the local cache, if any, hold every trace:<id>
// entry a lease's points replay. It federates at chunk granularity
// against the full replica list — only chunks the cache is missing
// transfer, so a worker that already replayed a near-duplicate trace
// (same program, different seed) pulls a fraction of the bytes — and
// falls back to the whole-container route when a coordinator predates
// chunk federation. Either way every byte is verified against the
// requested id before it may serve simulations.
func (w *Worker) ensureTraces(ctx context.Context, l *Lease) error {
	ids := map[string]bool{}
	for _, p := range l.Points {
		if id, ok := strings.CutPrefix(p.Workload, cmp.TraceWorkloadPrefix); ok {
			ids[id] = true
		}
	}
	if len(ids) == 0 || w.Corpus == nil {
		return nil
	}
	client, ok := w.Coordinator.(*Client)
	if !ok {
		return errors.New("dist: a worker corpus cache fetches over HTTP and needs a *Client coordinator")
	}
	fetcher := &corpus.Fetcher{
		Store: w.Corpus,
		Peers: append([]string{client.BaseURL}, client.FallbackURLs...),
		Logf:  w.Logf,
	}
	for id := range ids {
		if w.Corpus.Has(id) {
			continue
		}
		if err := fetcher.Fetch(ctx, id); err == nil {
			continue
		} else if ctx.Err() != nil {
			return ctx.Err()
		} else {
			w.logf("dist: trace %s: chunk federation failed (%v); falling back to container fetch", id[:12], err)
		}
		rc, err := client.FetchCorpus(ctx, id)
		if err != nil {
			return fmt.Errorf("dist: fetch trace %s: %w", id, err)
		}
		man, err := w.Corpus.Put(rc, "fetch")
		rc.Close()
		if err != nil {
			return fmt.Errorf("dist: cache trace %s: %w", id, err)
		}
		if man.ID != id {
			w.Corpus.Delete(man.ID)
			return fmt.Errorf("dist: trace %s: coordinator served bytes hashing to %s", id, man.ID)
		}
		w.logf("dist: cached trace %s (%d blocks, %d bytes)", id[:12], man.Blocks, man.SizeBytes)
	}
	return nil
}
