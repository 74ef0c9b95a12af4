package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// newDistServer mounts the coordinator exactly as the daemon does:
// under /v1/dist on a fresh mux.
func newDistServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/dist/", http.StripPrefix("/v1/dist", Handler(c)))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestWorker(srv *httptest.Server, name string) *Worker {
	c := NewClient(srv.URL)
	c.Retry = fastRetry
	return &Worker{Coordinator: c, Name: name, PollInterval: 20 * time.Millisecond}
}

// verifyJournal re-opens the sweep's journal from disk and checks it
// holds every grid point's key exactly once (the journal is
// content-addressed by key, so presence + count proves no gaps and no
// double entries).
func verifyJournal(t *testing.T, dir string, spec sweep.Spec, v SweepView) {
	t.Helper()
	j, err := sweep.OpenJournal(filepath.Join(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	n, err := j.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != v.Total {
		t.Fatalf("journal holds %d points, want exactly %d", n, v.Total)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		key, err := p.Key(v.WarmInstrs, v.MeasureInstrs, v.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := j.Get(key); !ok {
			t.Fatalf("point %d missing from journal", p.Index)
		} else if res.IPC <= 0 || res.Instructions == 0 {
			t.Fatalf("point %d journaled empty: %+v", p.Index, res)
		}
	}
}

// TestDistributedSweepSurvivesWorkerKill is the subsystem's headline
// fault-tolerance guarantee: one of three workers dies mid-shard, its
// lease expires, the dangling points reinject, and the sweep still
// finishes with every grid point journaled exactly once.
func TestDistributedSweepSurvivesWorkerKill(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{
		LeaseTTL:          250 * time.Millisecond,
		ShardSize:         2,
		JournalDir:        dir,
		MaxWorkerFailures: 100, // the kill must not quarantine anyone
	})
	srv := newDistServer(t, c)
	spec := testSpec()
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the victim runs alone, so it is guaranteed to hold a
	// 2-point lease; it is killed right after delivering its first
	// point, leaving the second leased-but-undelivered.
	victimCtx, kill := context.WithCancel(context.Background())
	victim := newTestWorker(srv, "victim")
	victim.OnPoint = func(sweep.PointResult) { kill() }
	_ = victim.Run(victimCtx) // returns once killed
	if got, _ := c.Sweep(v.ID); got.Completed != 1 {
		t.Fatalf("victim delivered %d points before dying, want exactly 1", got.Completed)
	}

	// Phase 2: two healthy workers finish the sweep, picking up the
	// victim's dangling point once its lease lapses.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"survivor-1", "survivor-2"} {
		w := newTestWorker(srv, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	final, err := c.Wait(ctx, v.ID)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if final.State != SweepCompleted || final.Completed != v.Total {
		t.Fatalf("sweep ended %s with %d/%d points (%s)", final.State, final.Completed, v.Total, final.Error)
	}
	s := c.Snapshot()
	if s.LeasesExpired < 1 || s.PointsReinjected < 1 {
		t.Fatalf("the kill left no trace: %+v", s)
	}
	if s.PointsCompleted != uint64(v.Total) {
		t.Fatalf("%d point deliveries counted, want exactly %d (idempotency)", s.PointsCompleted, v.Total)
	}
	verifyJournal(t, dir, spec, final)
	if data, _, ok := c.Artifact(v.ID, "results.json"); !ok || len(data) == 0 {
		t.Fatal("completed sweep has no results.json artifact")
	}
}

// TestCoordinatorRestartDoesNotRecompute kills a run mid-sweep, brings
// up a brand-new coordinator over the same journal root, and proves via
// the worker's engine counters that only the unfinished points are
// simulated in the second life.
func TestCoordinatorRestartDoesNotRecompute(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	// First life: a lone worker delivers a few points, then everything
	// (worker and coordinator) goes down.
	a := New(Config{LeaseTTL: 10 * time.Second, ShardSize: 1, JournalDir: dir})
	v, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newDistServer(t, a)
	killCtx, kill := context.WithCancel(context.Background())
	var delivered int32
	w1 := newTestWorker(srvA, "first-life")
	w1.OnPoint = func(sweep.PointResult) {
		if atomic.AddInt32(&delivered, 1) == 2 {
			kill()
		}
	}
	_ = w1.Run(killCtx)
	srvA.Close()

	// The journal is the only survivor; read how far the first life got.
	j, err := sweep.OpenJournal(filepath.Join(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := j.Len()
	if err != nil {
		t.Fatal(err)
	}
	if journaled == 0 || journaled >= v.Total {
		t.Fatalf("first life journaled %d of %d points, want a strict partial", journaled, v.Total)
	}

	// Second life: new coordinator, same journal root, fresh worker with
	// cold engines.
	b := New(Config{LeaseTTL: 10 * time.Second, ShardSize: 1, JournalDir: dir})
	resumed, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ID != v.ID || resumed.Recovered != journaled || resumed.Completed != journaled {
		t.Fatalf("resume view = %+v, want %d recovered under the same id", resumed, journaled)
	}
	srvB := newDistServer(t, b)
	w2 := newTestWorker(srvB, "second-life")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w2.Run(ctx)
	}()
	final, err := b.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	if final.State != SweepCompleted || final.Completed != v.Total || final.Recovered != journaled {
		t.Fatalf("resumed sweep ended %+v", final)
	}
	// The zero-recompute guarantee, asserted the hard way: the second
	// life's engines ran exactly the points the journal lacked.
	if c2 := w2.EngineCounters(); c2.Simulations != uint64(v.Total-journaled) {
		t.Fatalf("second life simulated %d points, want exactly %d (total %d - journaled %d)",
			c2.Simulations, v.Total-journaled, v.Total, journaled)
	}
	verifyJournal(t, dir, spec, final)
}

// leaseRecorder collects "shard-leased" events: the points in each
// lease, per worker id, and a channel closed at the n-th lease.
type leaseRecorder struct {
	mu    sync.Mutex
	sizes map[string][]int
	count int
	n     int
	nth   chan struct{}
}

func newLeaseRecorder(n int) *leaseRecorder {
	return &leaseRecorder{sizes: map[string][]int{}, n: n, nth: make(chan struct{})}
}

func (r *leaseRecorder) event(_, typ string, data any) {
	if typ != "shard-leased" {
		return
	}
	m := data.(map[string]any)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := m["worker_id"].(string)
	r.sizes[id] = append(r.sizes[id], m["points"].(int))
	if r.count++; r.count == r.n {
		close(r.nth)
	}
}

// awaitNth blocks until the n-th lease is granted.
func (r *leaseRecorder) awaitNth(t *testing.T, why string) {
	select {
	case <-r.nth:
	case <-time.After(10 * time.Second):
		t.Error(why)
	}
}

// TestWorkerOverlapsLeases: a worker with two slots takes a second
// lease while its first one is still delivering, so one lease's tail
// never leaves a slot idle.
func TestWorkerOverlapsLeases(t *testing.T) {
	rec := newLeaseRecorder(2)
	c := New(Config{ShardSize: 1, OnEvent: rec.event})
	v, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Coordinator: c, Name: "wide", Concurrency: 2, PollInterval: 20 * time.Millisecond}
	var once sync.Once
	w.OnPoint = func(sweep.PointResult) {
		once.Do(func() { rec.awaitNth(t, "worker with a slot free never took a second lease") })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	final, err := c.Wait(ctx, v.ID)
	cancel()
	<-done
	if err != nil || final.State != SweepCompleted {
		t.Fatalf("sweep: %+v, %v", final, err)
	}
}

// TestLeaseSizeIgnoresWorkerWidth: a one-slot worker and a three-slot
// worker share a cold sweep over HTTP. Each lease holds at most
// ShardSize points whoever takes it, both workers run points, and
// every point is journaled exactly once.
func TestLeaseSizeIgnoresWorkerWidth(t *testing.T) {
	dir := t.TempDir()
	rec := newLeaseRecorder(2)
	c := New(Config{JournalDir: dir, OnEvent: rec.event})
	srv := newDistServer(t, c)
	spec := testSpec()
	spec.TableEntries = []int{64, 128, 256, 512, 1024, 2048}
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The narrow worker holds the first lease until the wide one has
	// taken another.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	narrow := newTestWorker(srv, "narrow")
	var once sync.Once
	narrow.OnPoint = func(sweep.PointResult) {
		once.Do(func() { rec.awaitNth(t, "the wide worker never took a lease") })
	}
	wide := newTestWorker(srv, "wide")
	wide.Concurrency = 3
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		narrow.Run(ctx)
	}()
	go func() {
		defer wg.Done()
		for narrow.ID() == "" || c.Snapshot().LeasesGranted == 0 {
			time.Sleep(time.Millisecond)
		}
		wide.Run(ctx)
	}()
	final, err := c.Wait(ctx, v.ID)
	cancel()
	wg.Wait()
	if err != nil || final.State != SweepCompleted {
		t.Fatalf("sweep: %+v, %v", final, err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, w := range []*Worker{narrow, wide} {
		sizes := rec.sizes[w.ID()]
		if len(sizes) == 0 {
			t.Errorf("worker %s (%s) took no lease", w.ID(), w.Name)
		}
		for _, n := range sizes {
			if n > 4 {
				t.Errorf("worker %s (%s) took a %d-point lease, want at most ShardSize 4", w.ID(), w.Name, n)
			}
		}
	}
	if s := c.Snapshot(); s.PointsCompleted != uint64(v.Total) {
		t.Fatalf("%d point deliveries counted, want exactly %d", s.PointsCompleted, v.Total)
	}
	verifyJournal(t, dir, spec, final)
}
