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

// Worker is the remote execution half of the subsystem: it registers
// with a coordinator, pulls shard leases, runs each point on a local
// memoising sim.Engine (one per budget combination, like the service
// layer), streams every completed point back immediately, and renews
// its lease heartbeat while the shard runs. A worker whose heartbeat
// discovers the lease is gone abandons the shard — the coordinator has
// already reinjected it — and any points it delivered anyway are
// absorbed idempotently.
type Worker struct {
	// Client connects to the coordinator. Required.
	Client *Client
	// Name labels the worker in coordinator logs and metrics.
	Name string
	// Concurrency bounds points simulated in parallel within one lease.
	// Default 1.
	Concurrency int
	// PollInterval is the idle wait between acquire attempts when the
	// coordinator has no pending work. Default 500ms (jittered).
	PollInterval time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// OnPoint, when non-nil, is called after each point is delivered
	// (test and progress hook).
	OnPoint func(res sweep.PointResult)
	// Corpus, when non-nil, is this worker's local trace cache: before
	// running a lease whose points name trace:<id> workloads, the
	// worker fetches any missing container from the coordinator over
	// /v1/corpus, verifies the bytes hash to the requested id, and
	// registers the cache as a replay provider. Without it, trace
	// leases fail (and reinject toward workers that have a cache).
	Corpus *corpus.Store

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
// terminal rejection stops the loop.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		return errors.New("dist: worker needs a client")
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
	reg, err := w.Client.Register(ctx, w.Name)
	if err != nil {
		return fmt.Errorf("dist: register: %w", err)
	}
	w.mu.Lock()
	w.id = reg.ID
	w.mu.Unlock()
	ttl := time.Duration(reg.LeaseTTLMS) * time.Millisecond
	w.logf("dist: worker %s (%s) registered, lease ttl %s", reg.ID, w.Name, ttl)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.Client.Acquire(ctx, reg.ID)
		if err != nil {
			if errors.Is(err, ErrQuarantined) {
				return err
			}
			return fmt.Errorf("dist: acquire: %w", err)
		}
		if lease == nil {
			select {
			case <-time.After(w.Client.jitter(poll)):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if err := w.runLease(ctx, reg.ID, lease, ttl); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("dist: lease %s: %v", lease.ID, err)
		}
	}
}

// runLease simulates one shard under a heartbeat: points run (bounded
// by Concurrency), stream back as they finish, and a renew ticker keeps
// the lease alive. If a renewal reports the lease gone, the remaining
// points are abandoned mid-simulation.
func (w *Worker) runLease(ctx context.Context, workerID string, l *Lease, ttl time.Duration) error {
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
				if err := w.Client.Renew(leaseCtx, l.ID, workerID); err != nil {
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
	// the coordinator reinjects it promptly.
	if err := w.ensureTraces(leaseCtx, l); err != nil {
		cancel()
		hbWG.Wait()
		failCtx, cancelFail := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelFail()
		if ferr := w.Client.Fail(failCtx, l.ID, workerID, err.Error()); ferr != nil && !errors.Is(ferr, ErrLeaseGone) {
			w.logf("dist: report lease %s failure: %v", l.ID, ferr)
		}
		return err
	}

	conc := w.Concurrency
	if conc <= 0 {
		conc = 1
	}
	// Points sharing a warm phase fork from one snapshot; each result
	// streams back as soon as its point completes.
	eng := w.engineFor(l.WarmInstrs, l.MeasureInstrs, l.Seed)
	firstErr := sweep.RunPoints(leaseCtx, eng, l.Points, conc, func(res sweep.PointResult) error {
		if _, err := w.Client.SubmitPoint(leaseCtx, l.SweepID, workerID, res); err != nil {
			return fmt.Errorf("dist: submit point %d: %w", res.Point.Index, err)
		}
		if w.OnPoint != nil {
			w.OnPoint(res)
		}
		return nil
	})
	cancel()
	hbWG.Wait()

	if firstErr != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Report the failure so the coordinator reinjects immediately
		// instead of waiting out the TTL; a dead coordinator just means
		// the TTL path handles it.
		failCtx, cancelFail := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelFail()
		if err := w.Client.Fail(failCtx, l.ID, workerID, firstErr.Error()); err != nil && !errors.Is(err, ErrLeaseGone) {
			w.logf("dist: report lease %s failure: %v", l.ID, err)
		}
		return firstErr
	}
	if err := w.Client.Complete(ctx, l.ID, workerID); err != nil && !errors.Is(err, ErrLeaseGone) {
		return fmt.Errorf("dist: complete lease %s: %w", l.ID, err)
	}
	return nil
}

// ensureTraces makes the local cache hold every trace:<id> entry a
// lease's points replay. It federates at chunk granularity against the
// full replica list — only chunks the cache is missing transfer, so a
// worker that already replayed a near-duplicate trace (same program,
// different seed) pulls a fraction of the bytes — and falls back to the
// whole-container route when a coordinator predates chunk federation.
// Either way every byte is verified against the requested id before it
// may serve simulations.
func (w *Worker) ensureTraces(ctx context.Context, l *Lease) error {
	ids := map[string]bool{}
	for _, p := range l.Points {
		if id, ok := strings.CutPrefix(p.Workload, cmp.TraceWorkloadPrefix); ok {
			ids[id] = true
		}
	}
	if len(ids) == 0 {
		return nil
	}
	if w.Corpus == nil {
		return errors.New("dist: lease replays trace workloads but worker has no corpus cache (set Worker.Corpus)")
	}
	fetcher := &corpus.Fetcher{
		Store: w.Corpus,
		Peers: append([]string{w.Client.BaseURL}, w.Client.FallbackURLs...),
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
		rc, err := w.Client.FetchCorpus(ctx, id)
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
