// Package dist is the sweep-execution subsystem: a Coordinator owns
// every sweep's state, partitions its grid into shards and hands them
// out as time-bounded leases, while a Worker pulls leases, runs points
// on a sim.Engine, streams completed points back, and renews its lease
// heartbeat. A Worker speaks the lease protocol through an Endpoint:
// a *Client over HTTP (cmd/iprefetchworker, see Handler) or the
// *Coordinator itself, which is how the daemon runs its own sweeps in
// process. Every returned point persists through the coordinator's
// content-addressed sweep.Journal, so an expired lease (worker crash,
// network partition, missed heartbeat) is simply reinjected for other
// workers and a restarted coordinator resumes from the journal with
// zero lost and zero doubly-counted points. Point submission is
// idempotent (dedup by canonical point key), and workers that keep
// failing are quarantined so one bad host cannot starve a sweep.
package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/sweep"
)

// Errors returned by the coordinator; the HTTP layer maps each to a
// distinct status code.
var (
	// ErrUnknownWorker means the worker id was never registered (404).
	ErrUnknownWorker = errors.New("dist: unknown worker")
	// ErrQuarantined means the worker exceeded its failure budget and
	// may no longer acquire leases (403).
	ErrQuarantined = errors.New("dist: worker quarantined")
	// ErrLeaseGone means the lease expired or was never granted (410);
	// the worker should abandon the shard and acquire a fresh lease.
	ErrLeaseGone = errors.New("dist: lease gone")
	// ErrUnknownSweep means the sweep id is not registered here (404).
	ErrUnknownSweep = errors.New("dist: unknown sweep")
	// ErrUnknownPoint means a submitted result's key does not belong to
	// the sweep's grid (400).
	ErrUnknownPoint = errors.New("dist: result key not in sweep grid")
	// ErrFenced means another process has taken over the journal, so
	// this coordinator may no longer record points (409). Config.Fence
	// returns it.
	ErrFenced = errors.New("dist: journal ownership superseded")
)

// Config sizes the coordinator. Zero values take the stated defaults.
type Config struct {
	// LeaseTTL is how long a lease lives between heartbeats; an
	// unrenewed lease past its TTL is reinjected. Default 30s.
	LeaseTTL time.Duration
	// ShardSize is the maximum number of cold grid points per lease.
	// A fork-warm warm group is always leased whole, whatever its size,
	// so its warm phase runs once. Default 4.
	ShardSize int
	// MaxWorkerFailures quarantines a worker after this many
	// consecutive lease failures or expirations. Default 3.
	MaxWorkerFailures int
	// MaxPointFailures fails the whole sweep once any single point has
	// been handed out and lost this many times. Default 3.
	MaxPointFailures int
	// JournalDir roots the per-sweep checkpoint journals
	// (<JournalDir>/<sweep-id>); empty disables persistence (and with
	// it restart resume).
	JournalDir string
	// ArtifactDir, when set, receives each completed sweep's rendered
	// artifacts (<ArtifactDir>/<sweep-id>/<name>) before the sweep
	// reads as completed, and Artifact serves them from there for
	// sweeps this coordinator does not hold in memory.
	ArtifactDir string
	// DefaultWarmInstrs / DefaultMeasureInstrs / DefaultSeed are the
	// engine budgets used when a spec leaves them zero. Defaults
	// 1.5M / 3M / 1.
	DefaultWarmInstrs    uint64
	DefaultMeasureInstrs uint64
	DefaultSeed          uint64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Fence, when non-nil, guards every journal write: it runs write
	// only while this coordinator still owns the journal, and returns
	// ErrFenced without running it once another process has taken
	// over. A fenced point is neither journaled nor counted, and its
	// sweep is canceled here. Called with the coordinator lock held.
	Fence func(write func() error) error
	// OnEvent, when non-nil, receives progress notifications
	// ("shard-leased", "point-completed", "artifact-ready",
	// "sweep-completed", "sweep-failed", "sweep-canceled") keyed by
	// sweep id; the service layer fans them out to SSE subscribers.
	// Called with the coordinator lock held — the hook must be fast and
	// must not call back into the coordinator.
	OnEvent func(sweepID, typ string, data any)
}

// SweepState is the lifecycle of a sweep.
type SweepState string

// Sweep lifecycle states. A canceled sweep keeps its journal, and
// submitting its spec again resumes it.
const (
	SweepRunning   SweepState = "running"
	SweepCompleted SweepState = "completed"
	SweepFailed    SweepState = "failed"
	SweepCanceled  SweepState = "canceled"
)

// point execution states.
type pointState uint8

const (
	pointPending pointState = iota
	pointLeased
	pointDone
)

// distSweep is one sweep; mutable fields are guarded by
// Coordinator.mu.
type distSweep struct {
	id      string
	spec    sweep.Spec
	warm    uint64
	measure uint64
	seed    uint64
	journal *sweep.Journal // nil without JournalDir

	points   []sweep.Point
	keys     []string // canonical key per point, grid order
	groups   []string // warm key per fork-warm point, "" for cold ones
	byKey    map[string]int
	state    []pointState
	failures []int // lost-lease count per point
	results  []sweep.PointResult
	pending  []int // point indices ready to lease, FIFO

	completed int
	recovered int
	sstate    SweepState
	errMsg    string
	artifacts map[string][]byte

	submittedAt time.Time
	finishedAt  time.Time
	done        chan struct{}
}

// worker is one registered worker; guarded by Coordinator.mu.
type worker struct {
	id           string
	name         string
	registeredAt time.Time
	lastSeen     time.Time
	points       uint64 // completed point submissions
	failures     int    // consecutive lease failures/expirations
	quarantined  bool
	// inProcess marks a Worker running in the coordinator's own process:
	// the daemon's executor for its own sweeps. Quarantining it would
	// stop the daemon's sweeps, and a point it fails failed on the
	// daemon's own engines, so Fail fails that sweep at once.
	inProcess bool
}

// lease is one outstanding shard grant; guarded by Coordinator.mu.
type lease struct {
	id       string
	workerID string
	sweepID  string
	points   []int // grid indices
	expires  time.Time
}

// Coordinator owns the shard queue and lease table for any number of
// sweeps. All methods are safe for concurrent use. Lease expiry is
// evaluated lazily on every public entry point, so the coordinator
// needs no background goroutine: any acquiring worker (or a progress
// probe) drives reinjection.
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
	wake       chan struct{} // closed when pending work appears
	sweeps     map[string]*distSweep
	order      []string // sweep ids in submission order (lease fairness)
	workers    map[string]*worker
	leases     map[string]*lease
	nextWorker uint64
	nextLease  uint64
	metrics    counters
}

// counters are the coordinator's monotonic metrics; gauges derive from
// live state at exposition time. Guarded by Coordinator.mu.
type counters struct {
	workersRegistered  uint64
	workersQuarantined uint64
	leasesGranted      uint64
	leasesCompleted    uint64
	leasesExpired      uint64
	leasesFailed       uint64
	pointsReinjected   uint64
	pointsCompleted    uint64
	pointsDuplicate    uint64
	pointsRecovered    uint64
	sweepsSubmitted    uint64
	sweepsCompleted    uint64
	sweepsFailed       uint64
	sweepsCanceled     uint64
}

// New returns a coordinator with cfg's defaults applied.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 4
	}
	if cfg.MaxWorkerFailures <= 0 {
		cfg.MaxWorkerFailures = 3
	}
	if cfg.MaxPointFailures <= 0 {
		cfg.MaxPointFailures = 3
	}
	if cfg.DefaultWarmInstrs == 0 {
		cfg.DefaultWarmInstrs = 1_500_000
	}
	if cfg.DefaultMeasureInstrs == 0 {
		cfg.DefaultMeasureInstrs = 3_000_000
	}
	if cfg.DefaultSeed == 0 {
		cfg.DefaultSeed = 1
	}
	return &Coordinator{
		cfg:     cfg,
		wake:    make(chan struct{}),
		sweeps:  make(map[string]*distSweep),
		workers: make(map[string]*worker),
		leases:  make(map[string]*lease),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// event fires the progress hook, if any.
func (c *Coordinator) event(sweepID, typ string, data any) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(sweepID, typ, data)
	}
}

// notifyLocked wakes every Acquire waiting for work. Caller must hold
// c.mu.
func (c *Coordinator) notifyLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// WorkerView is the wire form of a registration.
type WorkerView struct {
	ID string `json:"id"`
	// LeaseTTLMS tells the worker how often to heartbeat (renew well
	// inside this interval).
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// Register admits a worker and returns its id and the lease TTL it
// must heartbeat within.
func (c *Coordinator) Register(_ context.Context, name string) (WorkerView, error) {
	return c.register(name, false), nil
}

// register admits a worker; a Worker whose endpoint is this
// coordinator registers with inProcess set.
func (c *Coordinator) register(name string, inProcess bool) WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	c.nextWorker++
	w := &worker{
		id:           fmt.Sprintf("w-%06d", c.nextWorker),
		name:         name,
		registeredAt: time.Now(),
		lastSeen:     time.Now(),
		inProcess:    inProcess,
	}
	c.workers[w.id] = w
	c.metrics.workersRegistered++
	c.logf("dist: worker %s (%s) registered", w.id, w.name)
	return WorkerView{ID: w.id, LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()}
}

// SweepView is the wire form of a sweep's progress.
type SweepView struct {
	ID        string     `json:"id"`
	State     SweepState `json:"state"`
	Spec      sweep.Spec `json:"spec"`
	Error     string     `json:"error,omitempty"`
	Total     int        `json:"total_points"`
	Completed int        `json:"completed_points"`
	Recovered int        `json:"recovered_points"`
	// Resumed reports that some points were replayed from a previous
	// run's journal instead of simulated.
	Resumed bool `json:"resumed,omitempty"`
	Pending int  `json:"pending_points"`
	Leased  int  `json:"leased_points"`
	// Budgets echo the engine budgets every worker must run points
	// under.
	WarmInstrs    uint64     `json:"warm_instrs"`
	MeasureInstrs uint64     `json:"measure_instrs"`
	Seed          uint64     `json:"seed"`
	SubmittedAt   time.Time  `json:"submitted_at"`
	FinishedAt    *time.Time `json:"finished_at,omitempty"`
	// Artifacts lists the downloadable artifact names once the sweep
	// completes (GET /v1/sweeps/{id}/artifacts/{name}).
	Artifacts []string `json:"artifacts,omitempty"`
}

// Submit registers a sweep: the grid expands, journaled points are
// replayed immediately (zero recompute on coordinator restart), and the
// remainder queues for leasing. Identity is content-derived, so
// resubmitting an identical spec attaches to the existing sweep, unless
// that sweep was canceled, in which case it resumes from its journal.
func (c *Coordinator) Submit(spec sweep.Spec) (SweepView, error) {
	if err := spec.Validate(); err != nil {
		return SweepView{}, err
	}
	points, err := spec.Expand()
	if err != nil {
		return SweepView{}, err
	}
	warm, measure, seed := spec.WarmInstrs, spec.MeasureInstrs, spec.Seed
	if warm == 0 {
		warm = c.cfg.DefaultWarmInstrs
	}
	if measure == 0 {
		measure = c.cfg.DefaultMeasureInstrs
	}
	if seed == 0 {
		seed = c.cfg.DefaultSeed
	}
	id := spec.ID(warm, measure, seed)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	prev, known := c.sweeps[id]
	if known && prev.sstate != SweepCanceled {
		return c.viewLocked(prev), nil
	}

	ds := &distSweep{
		id: id, spec: spec,
		warm: warm, measure: measure, seed: seed,
		points:      points,
		keys:        make([]string, len(points)),
		groups:      make([]string, len(points)),
		byKey:       make(map[string]int, len(points)),
		state:       make([]pointState, len(points)),
		failures:    make([]int, len(points)),
		results:     make([]sweep.PointResult, len(points)),
		sstate:      SweepRunning,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	for i, p := range points {
		key, err := p.Key(warm, measure, seed)
		if err != nil {
			return SweepView{}, err // Validate vetted the axes; unreachable
		}
		ds.keys[i] = key
		ds.byKey[key] = i
		if p.ForkWarm {
			rs, _ := p.RunSpec() // Key resolved it already
			ds.groups[i] = rs.WarmKey()
		}
	}
	if c.cfg.JournalDir != "" {
		j, err := sweep.OpenJournal(filepath.Join(c.cfg.JournalDir, id))
		if err != nil {
			c.logf("dist: sweep %s: journal disabled: %v", id, err)
		} else {
			ds.journal = j
			for i, key := range ds.keys {
				if res, ok := j.Get(key); ok {
					res.Point = points[i] // grid indices may differ across spec edits
					ds.results[i] = res
					ds.state[i] = pointDone
					ds.completed++
					ds.recovered++
					c.metrics.pointsRecovered++
				}
			}
		}
	}
	for i := range points {
		if ds.state[i] == pointPending {
			ds.pending = append(ds.pending, i)
		}
	}
	c.sweeps[id] = ds
	if !known {
		c.order = append(c.order, id)
	}
	c.metrics.sweepsSubmitted++
	c.logf("dist: sweep %s submitted: %d points (%d recovered from journal, %d to lease)",
		id, len(points), ds.recovered, len(ds.pending))
	if len(ds.pending) > 0 {
		c.notifyLocked()
	}
	c.maybeFinishLocked(ds)
	return c.viewLocked(ds), nil
}

// Lease is one granted shard: the points to simulate, the budgets to
// run them under, and the TTL the worker must renew within.
type Lease struct {
	ID            string        `json:"id"`
	SweepID       string        `json:"sweep_id"`
	Points        []sweep.Point `json:"points"`
	WarmInstrs    uint64        `json:"warm_instrs"`
	MeasureInstrs uint64        `json:"measure_instrs"`
	Seed          uint64        `json:"seed"`
	TTLMS         int64         `json:"ttl_ms"`
}

// Acquire grants the next shard of pending points to the worker. When
// no sweep has pending work it waits up to wait for a submission or a
// reinjection to bring some, and returns (nil, nil) if none comes.
func (c *Coordinator) Acquire(ctx context.Context, workerID string, wait time.Duration) (*Lease, error) {
	var timeout <-chan time.Time
	for {
		c.mu.Lock()
		l, err := c.acquireLocked(workerID, time.Now())
		wake := c.wake
		c.mu.Unlock()
		if l != nil || err != nil || wait <= 0 {
			return l, err
		}
		if timeout == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-wake:
		case <-timeout:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// acquireLocked grants the next shard, or nil when no sweep has
// pending work. Caller must hold c.mu.
func (c *Coordinator) acquireLocked(workerID string, now time.Time) (*Lease, error) {
	c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	if w.quarantined {
		return nil, ErrQuarantined
	}
	for _, id := range c.order {
		ds := c.sweeps[id]
		if ds.sstate != SweepRunning || len(ds.pending) == 0 {
			continue
		}
		idxs := c.shardLocked(ds)
		c.nextLease++
		l := &lease{
			id:       fmt.Sprintf("lease-%06d", c.nextLease),
			workerID: workerID,
			sweepID:  id,
			points:   idxs,
			expires:  now.Add(c.cfg.LeaseTTL),
		}
		pts := make([]sweep.Point, 0, len(idxs))
		for _, i := range idxs {
			ds.state[i] = pointLeased
			pts = append(pts, ds.points[i])
		}
		c.leases[l.id] = l
		c.metrics.leasesGranted++
		c.event(id, "shard-leased", map[string]any{
			"lease_id": l.id, "worker_id": workerID, "points": len(idxs),
			"completed": ds.completed, "total": len(ds.points),
		})
		return &Lease{
			ID: l.id, SweepID: id, Points: pts,
			WarmInstrs: ds.warm, MeasureInstrs: ds.measure, Seed: ds.seed,
			TTLMS: c.cfg.LeaseTTL.Milliseconds(),
		}, nil
	}
	return nil, nil
}

// shardLocked takes the next lease's points off the sweep's pending
// queue: the head point's whole warm group when it is fork-warm (a
// group split across leases would run its warm phase once per lease),
// else up to ShardSize cold points in queue order. Caller must hold
// c.mu.
func (c *Coordinator) shardLocked(ds *distSweep) []int {
	group := ds.groups[ds.pending[0]]
	var take, keep []int
	for _, i := range ds.pending {
		if ds.groups[i] == group && (group != "" || len(take) < c.cfg.ShardSize) {
			take = append(take, i)
		} else {
			keep = append(keep, i)
		}
	}
	ds.pending = keep
	return take
}

// Renew extends a live lease by one TTL (the worker heartbeat).
func (c *Coordinator) Renew(_ context.Context, leaseID, workerID string) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = now
	}
	l, ok := c.leases[leaseID]
	if !ok || l.workerID != workerID {
		return ErrLeaseGone
	}
	l.expires = now.Add(c.cfg.LeaseTTL)
	return nil
}

// SubmitPoint records one completed grid point. Submission is
// idempotent and lease-independent: a result keyed into the grid is
// journaled and counted exactly once no matter how many workers (or
// retries) deliver it, and a worker whose lease already expired still
// contributes its finished work. Once Config.Fence reports that another
// process owns the journal, it returns ErrFenced, records nothing, and
// forgets the sweep, whose state now lives in the new owner's journal.
func (c *Coordinator) SubmitPoint(_ context.Context, sweepID, workerID string, res sweep.PointResult) (duplicate bool, err error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	ds, ok := c.sweeps[sweepID]
	if !ok {
		return false, ErrUnknownSweep
	}
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = now
	}
	i, ok := ds.byKey[res.Key]
	if !ok {
		return false, ErrUnknownPoint
	}
	if ds.state[i] == pointDone {
		c.metrics.pointsDuplicate++
		return true, nil
	}
	res.Point = ds.points[i] // canonical grid point, not the worker's echo
	res.Recovered = false
	if ds.journal != nil {
		put := func() error { return ds.journal.Put(res) }
		if c.cfg.Fence != nil {
			err = c.cfg.Fence(put)
		} else {
			err = put()
		}
		if errors.Is(err, ErrFenced) {
			c.endSweepLocked(ds, SweepCanceled, err.Error())
			c.forgetLocked(sweepID)
			return false, err
		}
		if err != nil {
			// A lost checkpoint costs recomputation after a restart, not
			// correctness; log and keep the in-memory result.
			c.logf("dist: sweep %s: checkpoint point %d: %v", sweepID, i, err)
		}
	}
	// The point may sit in pending again if its lease expired between
	// the worker finishing it and the submission arriving; drop it.
	for pi, idx := range ds.pending {
		if idx == i {
			ds.pending = append(ds.pending[:pi], ds.pending[pi+1:]...)
			break
		}
	}
	ds.results[i] = res
	ds.state[i] = pointDone
	ds.completed++
	c.metrics.pointsCompleted++
	if w, ok := c.workers[workerID]; ok {
		w.points++
	}
	c.event(sweepID, "point-completed", map[string]any{
		"key": res.Key, "index": res.Point.Index, "worker_id": workerID,
		"ipc": res.IPC, "completed": ds.completed, "total": len(ds.points),
	})
	c.maybeFinishLocked(ds)
	return false, nil
}

// Complete closes a lease whose points were all submitted. Any point
// the worker failed to deliver is reinjected. A completed lease resets
// the worker's failure streak.
func (c *Coordinator) Complete(_ context.Context, leaseID, workerID string) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok || l.workerID != workerID {
		return ErrLeaseGone
	}
	delete(c.leases, leaseID)
	c.reinjectLocked(l)
	c.metrics.leasesCompleted++
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = now
		w.failures = 0
	}
	return nil
}

// Fail abandons a lease after a worker-side error: undelivered points
// reinject immediately (no need to wait for expiry) and the worker's
// failure streak grows, quarantining it past the budget. A point that
// keeps getting lost fails the whole sweep rather than looping forever.
// A lease failed by an in-process worker fails its sweep with reason.
func (c *Coordinator) Fail(_ context.Context, leaseID, workerID, reason string) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok || l.workerID != workerID {
		return ErrLeaseGone
	}
	delete(c.leases, leaseID)
	c.metrics.leasesFailed++
	c.logf("dist: lease %s failed by %s: %s", leaseID, workerID, reason)
	if w, ok := c.workers[workerID]; ok && w.inProcess {
		if ds, ok := c.sweeps[l.sweepID]; ok {
			c.endSweepLocked(ds, SweepFailed, reason)
		}
		return nil
	}
	c.chargePointsLocked(l, reason)
	c.chargeWorkerLocked(workerID)
	return nil
}

// expireLocked reinjects every lease past its deadline. Caller must
// hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, id)
		c.metrics.leasesExpired++
		c.logf("dist: lease %s (worker %s) expired, reinjecting %d points", id, l.workerID, len(l.points))
		c.chargePointsLocked(l, "lease expired")
		c.chargeWorkerLocked(l.workerID)
	}
}

// reinjectLocked returns a lease's unfinished points to the pending
// queue of a running sweep and wakes idle workers. Caller must hold
// c.mu.
func (c *Coordinator) reinjectLocked(l *lease) {
	ds, ok := c.sweeps[l.sweepID]
	if !ok || ds.sstate != SweepRunning {
		return
	}
	n := 0
	for _, i := range l.points {
		if ds.state[i] != pointLeased {
			continue
		}
		ds.state[i] = pointPending
		ds.pending = append(ds.pending, i)
		c.metrics.pointsReinjected++
		n++
	}
	if n > 0 {
		c.notifyLocked()
	}
}

// chargePointsLocked reinjects a lost lease's points and fails the
// sweep once any point exhausts its retry budget. Caller must hold
// c.mu.
func (c *Coordinator) chargePointsLocked(l *lease, reason string) {
	ds, ok := c.sweeps[l.sweepID]
	if !ok {
		return
	}
	for _, i := range l.points {
		if ds.state[i] != pointLeased {
			continue
		}
		ds.failures[i]++
		if ds.failures[i] >= c.cfg.MaxPointFailures {
			c.endSweepLocked(ds, SweepFailed, fmt.Sprintf("point %d lost %d times (last: %s)", i, ds.failures[i], reason))
		}
	}
	c.reinjectLocked(l)
}

// chargeWorkerLocked advances a worker's failure streak and quarantines
// it past the budget. Caller must hold c.mu.
func (c *Coordinator) chargeWorkerLocked(workerID string) {
	w, ok := c.workers[workerID]
	if !ok || w.quarantined || w.inProcess {
		return
	}
	w.failures++
	if w.failures >= c.cfg.MaxWorkerFailures {
		w.quarantined = true
		c.metrics.workersQuarantined++
		c.logf("dist: worker %s (%s) quarantined after %d failures", w.id, w.name, w.failures)
	}
}

// endSweepLocked moves a running sweep to the failed or canceled state
// and drops its queue. Canceling also revokes the sweep's leases, so
// their workers abandon the shards at the next heartbeat. Caller must
// hold c.mu.
func (c *Coordinator) endSweepLocked(ds *distSweep, state SweepState, msg string) {
	if ds.sstate != SweepRunning {
		return
	}
	ds.sstate = state
	ds.errMsg = msg
	ds.pending = nil
	ds.finishedAt = time.Now()
	if state == SweepCanceled {
		c.metrics.sweepsCanceled++
		for id, l := range c.leases {
			if l.sweepID == ds.id {
				delete(c.leases, id)
			}
		}
	} else {
		c.metrics.sweepsFailed++
	}
	close(ds.done)
	c.event(ds.id, "sweep-"+string(state), map[string]any{
		"error": msg, "completed": ds.completed, "total": len(ds.points),
	})
	c.logf("dist: sweep %s %s: %s", ds.id, state, msg)
}

// forgetLocked drops an ended sweep from memory, so reads of it fall
// back to the shared journal and ArtifactDir. Caller must hold c.mu.
func (c *Coordinator) forgetLocked(id string) {
	delete(c.sweeps, id)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// CancelRunning cancels every running sweep (see endSweepLocked); a
// daemon calls it once its workers have stopped at shutdown.
func (c *Coordinator) CancelRunning(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ds := range c.sweeps {
		c.endSweepLocked(ds, SweepCanceled, reason)
	}
}

// maybeFinishLocked completes the sweep once every point is done,
// rendering its artifacts (and persisting them, with ArtifactDir set)
// before the completed state is visible. Caller must hold c.mu.
func (c *Coordinator) maybeFinishLocked(ds *distSweep) {
	if ds.sstate != SweepRunning || ds.completed != len(ds.points) {
		return
	}
	out := &sweep.Outcome{
		Spec:      ds.spec,
		Points:    append([]sweep.PointResult(nil), ds.results...),
		Recovered: ds.recovered,
		Simulated: ds.completed - ds.recovered,
	}
	ds.artifacts = out.Artifact().Files()
	c.persistArtifacts(ds.id, ds.artifacts)
	ds.sstate = SweepCompleted
	ds.finishedAt = time.Now()
	close(ds.done)
	c.metrics.sweepsCompleted++
	names := make([]string, 0, len(ds.artifacts))
	for name := range ds.artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	c.event(ds.id, "artifact-ready", map[string]any{"artifacts": names})
	c.event(ds.id, "sweep-completed", map[string]any{
		"completed": ds.completed, "total": len(ds.points), "recovered": ds.recovered,
	})
	c.logf("dist: sweep %s completed (%d points, %d recovered)", ds.id, ds.completed, ds.recovered)
}

// viewLocked snapshots a sweep. Caller must hold c.mu.
func (c *Coordinator) viewLocked(ds *distSweep) SweepView {
	leased := 0
	for _, st := range ds.state {
		if st == pointLeased {
			leased++
		}
	}
	v := SweepView{
		ID:            ds.id,
		State:         ds.sstate,
		Spec:          ds.spec,
		Error:         ds.errMsg,
		Total:         len(ds.points),
		Completed:     ds.completed,
		Recovered:     ds.recovered,
		Resumed:       ds.recovered > 0,
		Pending:       len(ds.pending),
		Leased:        leased,
		WarmInstrs:    ds.warm,
		MeasureInstrs: ds.measure,
		Seed:          ds.seed,
		SubmittedAt:   ds.submittedAt,
	}
	if !ds.finishedAt.IsZero() {
		t := ds.finishedAt
		v.FinishedAt = &t
	}
	for name := range ds.artifacts {
		v.Artifacts = append(v.Artifacts, name)
	}
	sort.Strings(v.Artifacts)
	return v
}

// Sweep returns the sweep with the given id.
func (c *Coordinator) Sweep(id string) (SweepView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	ds, ok := c.sweeps[id]
	if !ok {
		return SweepView{}, false
	}
	return c.viewLocked(ds), true
}

// Sweeps lists every known sweep in submission order.
func (c *Coordinator) Sweeps() []SweepView {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	out := make([]SweepView, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.viewLocked(c.sweeps[id]))
	}
	return out
}

// Wait blocks until the sweep reaches a terminal state or ctx fires.
func (c *Coordinator) Wait(ctx context.Context, id string) (SweepView, error) {
	c.mu.Lock()
	ds, ok := c.sweeps[id]
	c.mu.Unlock()
	if !ok {
		return SweepView{}, ErrUnknownSweep
	}
	select {
	case <-ds.done:
	case <-ctx.Done():
		return SweepView{}, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked(ds), nil
}

// Artifact returns one rendered artifact of a completed sweep: from
// memory, or from ArtifactDir for a sweep a peer process or an earlier
// run completed.
func (c *Coordinator) Artifact(id, name string) (data []byte, contentType string, ok bool) {
	c.mu.Lock()
	if ds, found := c.sweeps[id]; found {
		data, ok = ds.artifacts[name]
	}
	c.mu.Unlock()
	if !ok && c.cfg.ArtifactDir != "" && name == filepath.Base(name) && name != "" && name[0] != '.' {
		var err error
		data, err = os.ReadFile(filepath.Join(c.cfg.ArtifactDir, id, name))
		ok = err == nil
	}
	if !ok {
		return nil, "", false
	}
	return data, sweep.ArtifactContentType(name), true
}

// persistArtifacts writes a completed sweep's artifacts under
// ArtifactDir, if set.
func (c *Coordinator) persistArtifacts(id string, artifacts map[string][]byte) {
	if c.cfg.ArtifactDir == "" {
		return
	}
	dir := filepath.Join(c.cfg.ArtifactDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.logf("dist: sweep %s: persist artifacts: %v", id, err)
		return
	}
	for name, data := range artifacts {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			c.logf("dist: sweep %s: persist %s: %v", id, name, err)
		}
	}
}
