package service

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

// testConfig returns a config with tiny budgets so each simulation runs
// in well under a second.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Workers:              2,
		QueueDepth:           16,
		DefaultWarmInstrs:    20_000,
		DefaultMeasureInstrs: 50_000,
		Seed:                 1,
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	return startTestService(t, cfg, true)
}

// startTestService starts a service, with or without its in-process
// sweep worker, and shuts it down when the test ends.
func startTestService(t *testing.T, cfg Config, localSweeps bool) *Service {
	t.Helper()
	s, err := newService(cfg, localSweeps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func cheapSpec() JobSpec {
	return JobSpec{Workload: "DB", Cores: 1, Scheme: "none"}
}

func waitDone(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return v
}

func TestSubmitRunsJobToCompletion(t *testing.T) {
	s := newTestService(t, testConfig(t))
	v, err := s.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued {
		t.Fatalf("state = %s, want %s", v.State, StateQueued)
	}
	got := waitDone(t, s, v.ID)
	if got.State != StateCompleted {
		t.Fatalf("state = %s (err %q), want %s", got.State, got.Error, StateCompleted)
	}
	if got.Summary == nil || got.Summary.IPC <= 0 {
		t.Fatalf("summary missing or non-positive IPC: %+v", got.Summary)
	}
	if got.Result == nil || got.Result.Total.Instructions == 0 {
		t.Fatal("full result missing from finished job view")
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	s := newTestService(t, testConfig(t))
	for _, spec := range []JobSpec{
		{}, // everything missing
		{Workload: "DB", Cores: 0, Scheme: "none"},                // bad cores
		{Workload: "DB", Cores: 1, Scheme: "no-such-scheme"},      // bad scheme
		{Workload: "no-such-workload", Cores: 1, Scheme: "none"},  // bad workload
		{Apps: []string{"nope"}, Cores: 1, Scheme: "none"},        // bad app
		{Workload: "DB", Cores: 1, Scheme: "none", TimeoutMS: -1}, // bad timeout
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
}

// TestInFlightDedup submits the same spec many times concurrently and
// checks every caller gets the same job and exactly one simulation ran.
// The budgets are larger than the other tests' so the job reliably
// outlives the submission burst — with tiny budgets a job can start
// and finish between two Submit calls on a single-CPU scheduler,
// leaving nothing in flight to dedup against.
func TestInFlightDedup(t *testing.T) {
	cfg := testConfig(t)
	cfg.DefaultWarmInstrs = 500_000
	cfg.DefaultMeasureInstrs = 1_500_000
	s := newTestService(t, cfg)
	const callers = 8
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(cheapSpec())
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("dedup broken: got jobs %v", ids)
		}
	}
	waitDone(t, s, ids[0])
	if c := s.EngineCounters(); c.Simulations != 1 {
		t.Fatalf("engine ran %d simulations, want 1", c.Simulations)
	}
	snap := s.Metrics().Snapshot()
	if snap.DedupHits != callers-1 {
		t.Fatalf("dedup_hits = %d, want %d", snap.DedupHits, callers-1)
	}
	if snap.Submitted != 1 {
		t.Fatalf("jobs_submitted = %d, want 1 (dedup hits don't resubmit)", snap.Submitted)
	}
}

// TestQueueSaturation fills a 1-deep queue on a stalled pool and checks
// the overflow submission is rejected with ErrQueueFull.
func TestQueueSaturation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	// Big budgets so the first job occupies the only worker long enough
	// for the queue to fill behind it.
	slow := JobSpec{Workload: "DB", Cores: 1, Scheme: "none",
		WarmInstrs: 50_000_000, MeasureInstrs: 50_000_000, TimeoutMS: 100}
	s := newTestService(t, cfg)
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}
	// Distinct specs so dedup doesn't coalesce them. One of these fills
	// the queue slot (the first may or may not have been picked up yet),
	// and by the third the queue must be full.
	var sawFull bool
	for i, scheme := range []string{"nl-always", "nl-miss", "n4l-tagged"} {
		_, err := s.Submit(JobSpec{Workload: "DB", Cores: 1, Scheme: scheme,
			WarmInstrs: 50_000_000, MeasureInstrs: 50_000_000, TimeoutMS: 100})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !sawFull {
		t.Fatal("never saw ErrQueueFull with workers=1 queue=1 and 4 slow jobs")
	}
	if s.Metrics().Snapshot().QueueFull == 0 {
		t.Fatal("queue_full metric not incremented")
	}
}

// TestJobTimeoutCancelsMidSimulation gives a job an absurd budget and a
// short deadline; it must come back canceled quickly.
func TestJobTimeoutCancelsMidSimulation(t *testing.T) {
	s := newTestService(t, testConfig(t))
	spec := JobSpec{Workload: "DB", Cores: 1, Scheme: "none",
		WarmInstrs: 500_000_000, MeasureInstrs: 500_000_000, TimeoutMS: 50}
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := waitDone(t, s, v.ID)
	if got.State != StateCanceled {
		t.Fatalf("state = %s (err %q), want %s", got.State, got.Error, StateCanceled)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s; deadline not honoured mid-simulation", elapsed)
	}
	if s.Metrics().Snapshot().Canceled != 1 {
		t.Fatal("canceled metric not incremented")
	}
}

// TestShutdownDrainsQueuedJobs submits jobs then shuts down; every job
// must reach a terminal state and new submissions must be refused.
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	s := newTestService(t, cfg)
	var ids []string
	for _, scheme := range []string{"none", "nl-always", "nl-miss"} {
		v, err := s.Submit(JobSpec{Workload: "DB", Cores: 1, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if v.State != StateCompleted {
			t.Fatalf("job %s drained to %s (err %q), want %s", id, v.State, v.Error, StateCompleted)
		}
	}
	if _, err := s.Submit(cheapSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after shutdown = %v, want ErrClosed", err)
	}
}

// TestShutdownEscalationCancelsRunningJobs checks that an expired
// shutdown context cancels a long-running simulation instead of
// blocking forever.
func TestShutdownEscalationCancelsRunningJobs(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	s := newTestService(t, cfg)
	v, err := s.Submit(JobSpec{Workload: "DB", Cores: 1, Scheme: "none",
		WarmInstrs: 500_000_000, MeasureInstrs: 500_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick the job up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		jv, _ := s.Job(v.ID)
		if jv.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", jv.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("escalated shutdown took %s", elapsed)
	}
	got, _ := s.Job(v.ID)
	if got.State != StateCanceled {
		t.Fatalf("job state after escalated shutdown = %s, want %s", got.State, StateCanceled)
	}
}

// TestStoreRoundTripAcrossRestart runs a job in one service instance,
// shuts it down, then checks a fresh instance sharing the same data dir
// answers the same spec from disk without simulating.
func TestStoreRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.ResultDir = dir

	s1 := newTestService(t, cfg)
	v, err := s1.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, s1, v.ID)
	if first.State != StateCompleted {
		t.Fatalf("first run state = %s", first.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := NewStoreLen(dir); err != nil || n != 1 {
		t.Fatalf("store has %d entries (err %v), want 1", n, err)
	}

	s2 := newTestService(t, cfg)
	v2, err := s2.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != StateCompleted || !v2.CacheHit {
		t.Fatalf("restarted service: state=%s cacheHit=%v, want completed cache hit", v2.State, v2.CacheHit)
	}
	if v2.Summary == nil || v2.Summary.IPC != first.Summary.IPC {
		t.Fatalf("cached IPC %+v != original %+v", v2.Summary, first.Summary)
	}
	if c := s2.EngineCounters(); c.Simulations != 0 {
		t.Fatalf("restarted service simulated %d times, want 0", c.Simulations)
	}
	if s2.Metrics().Snapshot().StoreHits != 1 {
		t.Fatal("store_hits metric not incremented")
	}
}

// NewStoreLen is a test helper: entry count of the store at dir.
func NewStoreLen(dir string) (int, error) {
	st, err := NewStore(dir)
	if err != nil {
		return 0, err
	}
	return st.Len()
}

// TestStoreIgnoresCorruptEntries writes garbage where an entry would
// live and checks Get treats it as a miss.
func TestStoreIgnoresCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("no-such-key"); ok {
		t.Fatal("Get on empty store returned an entry")
	}
	if err := os.WriteFile(st.path("k"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
}
