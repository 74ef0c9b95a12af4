package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmp"
	"repro/internal/corpus"
	"repro/internal/ctlplane"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Errors returned by Submit and SubmitSweep.
var (
	// ErrQueueFull means the bounded job queue has no space; the caller
	// should retry later (HTTP 503).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrSweepsSaturated means the cap on concurrently running sweeps
	// is reached; the caller should retry later (HTTP 503).
	ErrSweepsSaturated = errors.New("service: too many sweeps running")
	// ErrClosed means the service is shutting down and no longer
	// accepts jobs.
	ErrClosed = errors.New("service: shutting down")
)

// Config sizes the service. Zero values take the stated defaults.
type Config struct {
	// Workers is the worker-pool size. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run. Default 64.
	QueueDepth int
	// ResultDir roots the on-disk result store. Empty disables
	// persistence (results live only in the engine memo).
	ResultDir string
	// DefaultWarmInstrs / DefaultMeasureInstrs are the per-core budgets
	// used when a spec leaves them zero. Defaults 1.5M / 3M.
	DefaultWarmInstrs    uint64
	DefaultMeasureInstrs uint64
	// Seed is the workload seed used when a spec leaves it zero.
	// Default 1.
	Seed uint64
	// DefaultTimeout bounds each job's execution when the spec sets no
	// timeout; zero means unbounded.
	DefaultTimeout time.Duration
	// MaxActiveSweeps bounds concurrently running sweeps, whichever
	// workers (the daemon's own or remote ones) execute them.
	// Submissions past the cap are rejected with ErrSweepsSaturated
	// instead of queueing without bound. Default 8.
	MaxActiveSweeps int
	// DistLeaseTTL is the lease lifetime of the embedded sweep
	// coordinator. Zero takes the dist default (30s).
	DistLeaseTTL time.Duration
	// MaxCorpusUploadBytes caps one POST /v1/corpus body. Default
	// 64 MiB. Requires ResultDir (the corpus lives under it).
	MaxCorpusUploadBytes int64
	// CorpusPeers lists base URLs of peer daemons (typically the
	// control-plane replica list) whose corpora federate with this one:
	// a trace:<id> workload this daemon does not hold is pulled from
	// the first peer that has it, chunk by chunk, verified, and adopted
	// into the local store. Requires ResultDir.
	CorpusPeers []string
	// CorpusGCInterval enables the corpus garbage collector: every
	// interval, chunks not referenced by any manifest, sweep journal or
	// in-flight ingest are deleted (subject to CorpusGCGrace). Zero
	// disables collection. Requires ResultDir.
	CorpusGCInterval time.Duration
	// CorpusGCGrace protects recently written chunks from collection;
	// zero takes the corpus default (1h), negative disables the window.
	CorpusGCGrace time.Duration
	// CorpusGCDryRun makes the collector report what it would delete
	// without deleting anything.
	CorpusGCDryRun bool
	// SSEHeartbeat is the idle keep-alive interval of event streams.
	// Default 15s.
	SSEHeartbeat time.Duration
	// Version is the build version reported by iprefetchd_build_info.
	// Default "dev".
	Version string
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// JobState is the lifecycle of a job.
type JobState string

// Job lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// job is the service-internal job record; all mutable fields are
// guarded by Service.mu.
type job struct {
	id          string
	spec        JobSpec
	key         string
	state       JobState
	errMsg      string
	result      *sim.Result
	cacheHit    bool
	dedupCount  uint64
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	done        chan struct{}
}

// ResultView is the summary of a completed simulation served over the
// API, alongside the full result.
type ResultView struct {
	IPC              float64 `json:"ipc"`
	L1IMissPerInstr  float64 `json:"l1i_miss_per_instr"`
	L2IMissPerInstr  float64 `json:"l2i_miss_per_instr"`
	PrefetchAccuracy float64 `json:"prefetch_accuracy"`
	Instructions     uint64  `json:"instructions"`
	Cycles           uint64  `json:"cycles"`
	OffChipTransfers uint64  `json:"off_chip_transfers"`
}

// JobView is the wire form of a job.
type JobView struct {
	ID          string      `json:"id"`
	State       JobState    `json:"state"`
	Spec        JobSpec     `json:"spec"`
	Error       string      `json:"error,omitempty"`
	CacheHit    bool        `json:"cache_hit,omitempty"`
	DedupCount  uint64      `json:"dedup_count,omitempty"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Summary     *ResultView `json:"summary,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
}

// Service is the simulation job-queue subsystem: a bounded worker pool
// over one or more memoising engines, with in-flight dedup and an
// on-disk result store. Sweeps run through the embedded coordinator
// (see sweeps.go).
type Service struct {
	cfg     Config
	store   *Store          // nil when persistence is disabled
	corpus  *corpus.Store   // nil when persistence is disabled
	fetcher *corpus.Fetcher // nil without CorpusPeers
	metrics *Metrics
	dist    *dist.Coordinator
	broker  *ctlplane.Broker
	// replica is nil when replication is disabled. It is atomic, not
	// under mu, because the journal fence reads it under the
	// coordinator's lock, which SubmitSweep takes while holding mu.
	replica atomic.Pointer[ctlplane.Replica]
	adopted uint64 // sweeps resumed from the shared journal (atomic)

	gcMu          sync.Mutex
	gcRuns        uint64
	gcLast        corpus.GCStats
	gcDeleted     uint64
	gcReclaimed   uint64
	gcLastErr     string
	gcLastErrSeen time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stopSweeps context.CancelFunc // stops the in-process sweep worker
	queue      chan *job
	gcStop     chan struct{} // nil unless the corpus GC loop is running
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job // by id
	inflight map[string]*job // by canonical key; queued or running only
	engines  map[string]*sim.Engine
	nextID   uint64
	closed   bool
	limiter  *ctlplane.Limiter // nil when admission control is disabled
}

// New starts a service with cfg's worker pool and its in-process sweep
// worker running.
func New(cfg Config) (*Service, error) { return newService(cfg, true) }

// newService is New; localSweeps false leaves sweeps to remote workers
// (tests of the remote path only).
func newService(cfg Config, localSweeps bool) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultWarmInstrs == 0 {
		cfg.DefaultWarmInstrs = 1_500_000
	}
	if cfg.DefaultMeasureInstrs == 0 {
		cfg.DefaultMeasureInstrs = 3_000_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxActiveSweeps <= 0 {
		cfg.MaxActiveSweeps = 8
	}
	if cfg.MaxCorpusUploadBytes <= 0 {
		cfg.MaxCorpusUploadBytes = 64 << 20
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = 15 * time.Second
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	s := &Service{
		cfg:      cfg,
		metrics:  NewMetrics(),
		broker:   ctlplane.NewBroker(0),
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		engines:  make(map[string]*sim.Engine),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.ResultDir != "" {
		st, err := NewStore(cfg.ResultDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		// The trace corpus shares the data root, and the daemon's store
		// registers as a trace:<id> resolver so sweeps and jobs
		// can replay any entry it holds. With CorpusPeers configured the
		// resolver federates: an entry this daemon is missing is pulled
		// chunk-by-chunk from the first peer that holds it, verified,
		// and adopted before replay.
		cs, err := corpus.Open(filepath.Join(cfg.ResultDir, "corpus"))
		if err != nil {
			return nil, err
		}
		s.corpus = cs
		if len(cfg.CorpusPeers) > 0 {
			s.fetcher = &corpus.Fetcher{Store: cs, Peers: cfg.CorpusPeers, Logf: cfg.Logf}
		}
		cmp.RegisterTraceProvider(func(id string) (workload.Source, error) {
			if !cs.Has(id) && s.fetcher != nil {
				if err := s.fetcher.Fetch(s.baseCtx, id); err != nil {
					return nil, err
				}
			}
			return cs.ReplaySource(id)
		})
		if cfg.CorpusGCInterval > 0 {
			s.gcStop = make(chan struct{})
			s.wg.Add(1)
			go s.corpusGCLoop(cfg.CorpusGCInterval)
		}
	}
	// The embedded coordinator owns every sweep: it journals points to
	// <data>/sweeps/<id>, fenced by the control-plane lease when
	// replication is on, and persists artifacts to <data>/artifacts.
	dcfg := dist.Config{
		LeaseTTL:             cfg.DistLeaseTTL,
		DefaultWarmInstrs:    cfg.DefaultWarmInstrs,
		DefaultMeasureInstrs: cfg.DefaultMeasureInstrs,
		DefaultSeed:          cfg.Seed,
		Logf:                 cfg.Logf,
		Fence:                s.fenceJournal,
		// Sweep events stream over the SSE topic of the sweep, wherever
		// its points execute.
		OnEvent: func(sweepID, typ string, data any) {
			s.broker.Publish("sweep/"+sweepID, typ, data)
		},
	}
	if cfg.ResultDir != "" {
		dcfg.JournalDir = filepath.Join(cfg.ResultDir, "sweeps")
		dcfg.ArtifactDir = filepath.Join(cfg.ResultDir, "artifacts")
	}
	s.dist = dist.New(dcfg)
	s.metrics.sweeps = s.dist.Snapshot
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if localSweeps {
		var ctx context.Context
		ctx, s.stopSweeps = context.WithCancel(s.baseCtx)
		s.wg.Add(1)
		go s.runSweepWorker(ctx)
	}
	return s, nil
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Metrics returns the service's metrics set.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Dist returns the embedded distributed-sweep coordinator.
func (s *Service) Dist() *dist.Coordinator { return s.dist }

// Corpus returns the trace corpus store, or nil when persistence is
// disabled (no ResultDir).
func (s *Service) Corpus() *corpus.Store { return s.corpus }

// QueueDepth returns the number of jobs currently waiting.
func (s *Service) QueueDepth() int { return len(s.queue) }

// ActiveSweeps returns the number of sweeps currently running.
func (s *Service) ActiveSweeps() int { return s.dist.Snapshot().SweepsRunning }

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// EngineCounters sums the run-sharing counters of every engine the
// service has instantiated (one per distinct budget/seed combination).
func (s *Service) EngineCounters() EngineCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out EngineCounters
	for _, e := range s.engines {
		c := e.Counters()
		out.Simulations += c.Simulations
		out.MemoHits += c.MemoHits
		out.DedupWaits += c.DedupWaits
	}
	return out
}

// budgets resolves a spec's budget dimensions against the defaults.
func (s *Service) budgets(spec JobSpec) (warm, measure, seed uint64) {
	warm, measure, seed = spec.WarmInstrs, spec.MeasureInstrs, spec.Seed
	if warm == 0 {
		warm = s.cfg.DefaultWarmInstrs
	}
	if measure == 0 {
		measure = s.cfg.DefaultMeasureInstrs
	}
	if seed == 0 {
		seed = s.cfg.Seed
	}
	return warm, measure, seed
}

// engineFor returns (creating if needed) the engine for one budget/seed
// combination. Caller must hold s.mu.
func (s *Service) engineFor(warm, measure, seed uint64) *sim.Engine {
	k := fmt.Sprintf("%d|%d|%d", warm, measure, seed)
	e, ok := s.engines[k]
	if !ok {
		e = sim.NewEngine(warm, measure, seed)
		s.engines[k] = e
	}
	return e
}

// Submit validates and enqueues a simulation request. The fast paths
// return a finished or shared job without queueing anything: a spec
// identical to an in-flight job attaches to that job (dedup), and a
// spec whose result is already in the on-disk store completes
// immediately (cache hit).
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	warm, measure, seed := s.budgets(spec)
	key, err := spec.key(warm, measure, seed)
	if err != nil {
		return JobView{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrClosed
	}
	if j, ok := s.inflight[key]; ok {
		j.dedupCount++
		s.metrics.DedupHit()
		return s.viewLocked(j, true), nil
	}
	now := time.Now()
	if s.store != nil {
		if e, ok := s.store.Get(key); ok {
			j := s.newJobLocked(spec, key, now)
			j.state = StateCompleted
			j.cacheHit = true
			res := e.Result
			j.result = &res
			j.startedAt, j.finishedAt = now, now
			close(j.done)
			s.metrics.Submitted()
			s.metrics.StoreHit()
			return s.viewLocked(j, true), nil
		}
	}
	j := s.newJobLocked(spec, key, now)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		s.metrics.QueueFull()
		return JobView{}, ErrQueueFull
	}
	s.inflight[key] = j
	s.metrics.Submitted()
	v := s.viewLocked(j, false)
	s.publish("job/"+j.id, "job-queued", v)
	return v, nil
}

// newJobLocked allocates and registers a job. Caller must hold s.mu.
func (s *Service) newJobLocked(spec JobSpec, key string, now time.Time) *job {
	s.nextID++
	j := &job{
		id:          fmt.Sprintf("job-%06d", s.nextID),
		spec:        spec,
		key:         key,
		state:       StateQueued,
		submittedAt: now,
		done:        make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// worker drains the queue until Shutdown closes it.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job under its deadline against the base context,
// so shutdown escalation cancels running simulations.
func (s *Service) runJob(j *job) {
	ctx := s.baseCtx
	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	warm, measure, seed := s.budgets(j.spec)
	rs, specErr := j.spec.runSpec()

	s.mu.Lock()
	j.state = StateRunning
	j.startedAt = time.Now()
	eng := s.engineFor(warm, measure, seed)
	s.mu.Unlock()
	s.metrics.JobStarted()
	s.publish("job/"+j.id, "job-running", struct {
		ID string `json:"id"`
	}{j.id})

	var res sim.Result
	err := specErr
	if err == nil {
		res, err = eng.RunContext(ctx, rs)
	}
	finished := time.Now()

	outcome := "completed"
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		outcome = "canceled"
	default:
		outcome = "failed"
	}

	// Metrics and the persisted result land before the terminal state
	// is visible, so a client released by done sees both.
	s.metrics.JobFinished(outcome, finished.Sub(j.startedAt))
	if outcome == "completed" {
		for _, c := range res.Total.Components {
			s.metrics.PrefetchComponent(c.Name, c.Issued, c.Useful)
		}
		if s.store != nil {
			entry := StoredResult{
				Key:       j.key,
				Spec:      j.spec,
				Result:    res,
				CreatedAt: finished,
				ElapsedMS: finished.Sub(j.startedAt).Milliseconds(),
			}
			if err := s.store.Put(entry); err != nil {
				s.logf("service: persist %s: %v", j.id, err)
			}
		}
	}

	s.mu.Lock()
	j.finishedAt = finished
	switch outcome {
	case "completed":
		j.state = StateCompleted
		j.result = &res
	case "canceled":
		j.state = StateCanceled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	v := s.viewLocked(j, false)
	delete(s.inflight, j.key)
	s.mu.Unlock()
	close(j.done)
	s.publish("job/"+j.id, "job-"+outcome, v)
	s.logf("service: %s %s in %s (%s cores=%d scheme=%s)",
		j.id, outcome, finished.Sub(j.startedAt).Round(time.Millisecond),
		j.spec.Workload, j.spec.Cores, j.spec.Scheme)
}

// viewLocked snapshots a job. Caller must hold s.mu.
func (s *Service) viewLocked(j *job, includeResult bool) JobView {
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Error:       j.errMsg,
		CacheHit:    j.cacheHit,
		DedupCount:  j.dedupCount,
		SubmittedAt: j.submittedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	if j.result != nil {
		total := j.result.Total
		v.Summary = &ResultView{
			IPC:              total.IPC(),
			L1IMissPerInstr:  total.L1I.PerInstr(total.Instructions),
			L2IMissPerInstr:  total.L2I.PerInstr(total.Instructions),
			PrefetchAccuracy: total.Prefetch.Accuracy(),
			Instructions:     total.Instructions,
			Cycles:           total.Cycles,
			OffChipTransfers: j.result.OffChipTransfers,
		}
		if includeResult {
			v.Result = j.result
		}
	}
	return v
}

// Job returns the job with the given id.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j, true), true
}

// Jobs lists every known job, without full results.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.viewLocked(j, false))
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx fires.
func (s *Service) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(j, true), nil
}

// RunFigure executes one figure or ablation runner (id "1".."10",
// "a1".."a10") on the default-budget engine under ctx.
func (s *Service) RunFigure(ctx context.Context, id string) (string, []*stats.Table, error) {
	s.mu.Lock()
	eng := s.engineFor(s.cfg.DefaultWarmInstrs, s.cfg.DefaultMeasureInstrs, s.cfg.Seed)
	s.mu.Unlock()
	for _, r := range append(eng.Figures(), eng.Ablations()...) {
		if r.ID == id {
			tables, err := r.Run(ctx)
			return r.Name, tables, err
		}
	}
	return "", nil, fmt.Errorf("service: unknown figure %q", id)
}

// Shutdown drains the service gracefully: no new jobs or sweeps are
// accepted, queued jobs and running sweeps run to completion, and the
// call returns when the pool is idle. If ctx fires first, running
// simulations are cancelled (their jobs finish in state canceled, their
// sweeps are canceled with every finished point journaled, so they
// resume on resubmission) and the call waits for the pool to stop
// before returning ctx.Err().
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.queue)
	if s.gcStop != nil {
		close(s.gcStop)
	}
	s.mu.Unlock()
	// Backstop for callers that skip the daemon's explicit drain: no SSE
	// stream outlives the service, and each ends with a shutdown notice.
	s.DrainStreams()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, v := range s.dist.Sweeps() {
			if v.State == SweepRunning {
				s.dist.Wait(s.baseCtx, v.ID)
			}
		}
		if s.stopSweeps != nil {
			s.stopSweeps()
		}
		s.wg.Wait()
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.dist.CancelRunning("service shut down")
	// Ownership is released only now, so the journal stays fenced to
	// this replica while its sweeps drain.
	s.StopReplication()
	return err
}
