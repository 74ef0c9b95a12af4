// Package dist is the distributed sweep-execution subsystem: a
// Coordinator partitions a sweep.Spec grid into shards and hands them
// to remote workers as time-bounded leases over HTTP (see Handler),
// while a Worker (cmd/iprefetchworker) pulls leases, runs points on a
// local sim.Engine, streams completed points back, and renews its
// lease heartbeat. Every returned point persists through the same
// content-addressed sweep.Journal the local runner uses, so an expired
// lease (worker crash, network partition, missed heartbeat) is simply
// reinjected for other workers and a restarted coordinator resumes
// from the journal with zero lost and zero doubly-counted points.
// Point submission is idempotent (dedup by canonical point key), and
// workers that keep failing are quarantined so one bad host cannot
// starve a sweep.
package dist

import (
	"context"
	"errors"
	"fmt"
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
)

// Config sizes the coordinator. Zero values take the stated defaults.
type Config struct {
	// LeaseTTL is how long a lease lives between heartbeats; an
	// unrenewed lease past its TTL is reinjected. Default 30s.
	LeaseTTL time.Duration
	// ShardSize is the maximum number of grid points per lease.
	// Default 4.
	ShardSize int
	// MaxWorkerFailures quarantines a worker after this many
	// consecutive lease failures or expirations. Default 3.
	MaxWorkerFailures int
	// MaxPointFailures fails the whole sweep once any single point has
	// been handed out and lost this many times. Default 3.
	MaxPointFailures int
	// JournalDir roots the per-sweep checkpoint journals
	// (<JournalDir>/<sweep-id>); empty disables persistence (and with
	// it restart resume). The service layer points this at the same
	// directory local sweeps journal to, so a sweep started locally can
	// finish distributed and vice versa.
	JournalDir string
	// DefaultWarmInstrs / DefaultMeasureInstrs / DefaultSeed are the
	// engine budgets used when a spec leaves them zero. Defaults
	// 1.5M / 3M / 1.
	DefaultWarmInstrs    uint64
	DefaultMeasureInstrs uint64
	DefaultSeed          uint64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// NormalizeSpec, when non-nil, rewrites a submitted spec before
	// validation — the service layer uses it to expand
	// corpus:select(...) workload axes into pinned trace:<id> lists, so
	// grid points and the content-derived sweep ID never depend on the
	// executing machine's corpus contents.
	NormalizeSpec func(*sweep.Spec) error
	// OnEvent, when non-nil, receives progress notifications
	// ("shard-leased", "point-completed", "sweep-completed",
	// "sweep-failed") keyed by sweep id; the service layer fans them
	// out to SSE subscribers. Called with the coordinator lock held —
	// the hook must be fast and must not call back into the
	// coordinator.
	OnEvent func(sweepID, typ string, data any)
}

// SweepState is the lifecycle of a distributed sweep.
type SweepState string

// Distributed sweep lifecycle states.
const (
	SweepRunning   SweepState = "running"
	SweepCompleted SweepState = "completed"
	SweepFailed    SweepState = "failed"
)

// point execution states.
type pointState uint8

const (
	pointPending pointState = iota
	pointLeased
	pointDone
)

// distSweep is one distributed sweep; mutable fields are guarded by
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
// distributed sweeps. All methods are safe for concurrent use. Lease
// expiry is evaluated lazily on every public entry point, so the
// coordinator needs no background goroutine: any polling worker (or a
// progress probe) drives reinjection.
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
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

// SetOnEvent installs the progress hook after construction (the
// service layer builds its broker after the coordinator). Not safe to
// race with live traffic; call before serving.
func (c *Coordinator) SetOnEvent(fn func(sweepID, typ string, data any)) {
	c.cfg.OnEvent = fn
}

// LeaseTTL returns the configured lease lifetime (workers derive their
// heartbeat cadence from it).
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// WorkerView is the wire form of a registration.
type WorkerView struct {
	ID string `json:"id"`
	// LeaseTTLMS tells the worker how often to heartbeat (renew well
	// inside this interval).
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// RegisterWorker admits a worker and returns its id and the lease TTL
// it must heartbeat within.
func (c *Coordinator) RegisterWorker(name string) WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	c.nextWorker++
	w := &worker{
		id:           fmt.Sprintf("w-%06d", c.nextWorker),
		name:         name,
		registeredAt: time.Now(),
		lastSeen:     time.Now(),
	}
	c.workers[w.id] = w
	c.metrics.workersRegistered++
	c.logf("dist: worker %s (%s) registered", w.id, w.name)
	return WorkerView{ID: w.id, LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()}
}

// SweepView is the wire form of a distributed sweep's progress.
type SweepView struct {
	ID        string     `json:"id"`
	State     SweepState `json:"state"`
	Spec      sweep.Spec `json:"spec"`
	Error     string     `json:"error,omitempty"`
	Total     int        `json:"total_points"`
	Completed int        `json:"completed_points"`
	Recovered int        `json:"recovered_points"`
	Pending   int        `json:"pending_points"`
	Leased    int        `json:"leased_points"`
	// Budgets echo the engine budgets every worker must run points
	// under.
	WarmInstrs    uint64     `json:"warm_instrs"`
	MeasureInstrs uint64     `json:"measure_instrs"`
	Seed          uint64     `json:"seed"`
	SubmittedAt   time.Time  `json:"submitted_at"`
	FinishedAt    *time.Time `json:"finished_at,omitempty"`
	Artifacts     []string   `json:"artifacts,omitempty"`
}

// Submit registers a sweep for distributed execution: the grid expands,
// journaled points are replayed immediately (zero recompute on
// coordinator restart), and the remainder queues for leasing. Identity
// is content-derived, so resubmitting an identical spec attaches to the
// existing sweep.
func (c *Coordinator) Submit(spec sweep.Spec) (SweepView, error) {
	if c.cfg.NormalizeSpec != nil {
		if err := c.cfg.NormalizeSpec(&spec); err != nil {
			return SweepView{}, err
		}
	}
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
	if ds, ok := c.sweeps[id]; ok {
		return c.viewLocked(ds), nil
	}

	ds := &distSweep{
		id: id, spec: spec,
		warm: warm, measure: measure, seed: seed,
		points:      points,
		keys:        make([]string, len(points)),
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
	c.order = append(c.order, id)
	c.metrics.sweepsSubmitted++
	c.logf("dist: sweep %s submitted: %d points (%d recovered from journal, %d to lease)",
		id, len(points), ds.recovered, len(ds.pending))
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

// Acquire grants the next shard of pending points to the worker, or
// returns (nil, nil) when no sweep has pending work.
func (c *Coordinator) Acquire(workerID string) (*Lease, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
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
		n := c.cfg.ShardSize
		if n > len(ds.pending) {
			n = len(ds.pending)
		}
		idxs := append([]int(nil), ds.pending[:n]...)
		ds.pending = ds.pending[n:]
		c.nextLease++
		l := &lease{
			id:       fmt.Sprintf("lease-%06d", c.nextLease),
			workerID: workerID,
			sweepID:  id,
			points:   idxs,
			expires:  now.Add(c.cfg.LeaseTTL),
		}
		pts := make([]sweep.Point, 0, n)
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

// Renew extends a live lease by one TTL (the worker heartbeat).
func (c *Coordinator) Renew(leaseID, workerID string) error {
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
// contributes its finished work.
func (c *Coordinator) SubmitPoint(sweepID, workerID string, res sweep.PointResult) (duplicate bool, err error) {
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
		if err := ds.journal.Put(res); err != nil {
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
func (c *Coordinator) Complete(leaseID, workerID string) error {
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
func (c *Coordinator) Fail(leaseID, workerID, reason string) error {
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
// queue. Caller must hold c.mu.
func (c *Coordinator) reinjectLocked(l *lease) int {
	ds, ok := c.sweeps[l.sweepID]
	if !ok {
		return 0
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
	return n
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
		if ds.failures[i] >= c.cfg.MaxPointFailures && ds.sstate == SweepRunning {
			c.failSweepLocked(ds, fmt.Sprintf("point %d lost %d times (last: %s)", i, ds.failures[i], reason))
		}
	}
	c.reinjectLocked(l)
}

// chargeWorkerLocked advances a worker's failure streak and quarantines
// it past the budget. Caller must hold c.mu.
func (c *Coordinator) chargeWorkerLocked(workerID string) {
	w, ok := c.workers[workerID]
	if !ok || w.quarantined {
		return
	}
	w.failures++
	if w.failures >= c.cfg.MaxWorkerFailures {
		w.quarantined = true
		c.metrics.workersQuarantined++
		c.logf("dist: worker %s (%s) quarantined after %d failures", w.id, w.name, w.failures)
	}
}

// failSweepLocked moves a sweep to the failed state and drops its
// queue. Caller must hold c.mu.
func (c *Coordinator) failSweepLocked(ds *distSweep, msg string) {
	ds.sstate = SweepFailed
	ds.errMsg = msg
	ds.pending = nil
	ds.finishedAt = time.Now()
	close(ds.done)
	c.metrics.sweepsFailed++
	c.event(ds.id, "sweep-failed", map[string]any{
		"error": msg, "completed": ds.completed, "total": len(ds.points),
	})
	c.logf("dist: sweep %s failed: %s", ds.id, msg)
}

// maybeFinishLocked completes the sweep once every point is done,
// rendering the same artifacts the local sweep path exports. Caller
// must hold c.mu.
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

// Artifact returns one rendered artifact of a completed sweep.
func (c *Coordinator) Artifact(id, name string) (data []byte, contentType string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, found := c.sweeps[id]
	if !found || ds.artifacts == nil {
		return nil, "", false
	}
	data, ok = ds.artifacts[name]
	if !ok {
		return nil, "", false
	}
	return data, sweep.ArtifactContentType(name), true
}
