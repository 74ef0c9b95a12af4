package dist

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// testSpec pins tiny budgets so any test that really simulates stays
// fast; unit tests here fabricate results and never touch an engine.
func testSpec() sweep.Spec {
	return sweep.Spec{
		Name:          "dist-test",
		Schemes:       []string{"discontinuity"},
		Workloads:     []string{"DB", "Web"},
		Cores:         []int{1},
		TableEntries:  []int{128, 256},
		WarmInstrs:    20_000,
		MeasureInstrs: 50_000,
		Seed:          1,
	}
}

// fakeResult builds a plausible point result without running the
// simulator (the coordinator does not inspect metric values).
func fakeResult(t *testing.T, p sweep.Point, warm, measure, seed uint64) sweep.PointResult {
	t.Helper()
	key, err := p.Key(warm, measure, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.PointResult{
		Key:          key,
		Point:        p,
		IPC:          1 + float64(p.Index)*0.01,
		Instructions: measure,
		Cycles:       measure,
	}
}

// register admits a worker on the in-process endpoint.
func register(t *testing.T, c *Coordinator, name string) WorkerView {
	t.Helper()
	w, err := c.Register(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// drain acquires and fabricates results until the coordinator has no
// pending work, completing every lease.
func drain(t *testing.T, c *Coordinator, workerID string) {
	t.Helper()
	for {
		l, err := c.Acquire(context.Background(), workerID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			return
		}
		for _, p := range l.Points {
			if _, err := c.SubmitPoint(context.Background(), l.SweepID, workerID, fakeResult(t, p, l.WarmInstrs, l.MeasureInstrs, l.Seed)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Complete(context.Background(), l.ID, workerID); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitExpandsAndDedups(t *testing.T) {
	c := New(Config{})
	spec := testSpec()
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != SweepRunning || v.Total != len(points) || v.Pending != len(points) {
		t.Fatalf("fresh sweep view = %+v, want running with %d pending", v, len(points))
	}
	if v.WarmInstrs != 20_000 || v.MeasureInstrs != 50_000 || v.Seed != 1 {
		t.Fatalf("budgets not echoed: %+v", v)
	}
	again, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != v.ID {
		t.Fatalf("identical spec got a new sweep: %s vs %s", again.ID, v.ID)
	}
	if s := c.Snapshot(); s.SweepsSubmitted != 1 {
		t.Fatalf("resubmission counted as a new sweep: %+v", s)
	}
}

func TestLeaseLifecycleCompletesSweep(t *testing.T) {
	c := New(Config{ShardSize: 2})
	v, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "unit")
	drain(t, c, w.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepCompleted || final.Completed != v.Total {
		t.Fatalf("sweep ended %s with %d/%d points", final.State, final.Completed, v.Total)
	}
	for _, name := range []string{"results.json", "results.csv"} {
		if data, _, ok := c.Artifact(v.ID, name); !ok || len(data) == 0 {
			t.Fatalf("artifact %s missing after completion (have %v)", name, final.Artifacts)
		}
	}
	s := c.Snapshot()
	if s.PointsCompleted != uint64(v.Total) || s.LeasesCompleted == 0 || s.SweepsCompleted != 1 {
		t.Fatalf("lifecycle counters off: %+v", s)
	}
	if s.LeasesOutstanding != 0 {
		t.Fatalf("%d leases still outstanding after drain", s.LeasesOutstanding)
	}
}

func TestSubmitPointIdempotent(t *testing.T) {
	c := New(Config{ShardSize: 1})
	v, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "unit")
	l, err := c.Acquire(context.Background(), w.ID, 0)
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}
	res := fakeResult(t, l.Points[0], l.WarmInstrs, l.MeasureInstrs, l.Seed)
	if dup, err := c.SubmitPoint(context.Background(), l.SweepID, w.ID, res); err != nil || dup {
		t.Fatalf("first delivery: dup=%v err=%v", dup, err)
	}
	if dup, err := c.SubmitPoint(context.Background(), l.SweepID, w.ID, res); err != nil || !dup {
		t.Fatalf("second delivery: dup=%v err=%v, want acknowledged duplicate", dup, err)
	}
	got, _ := c.Sweep(v.ID)
	if got.Completed != 1 {
		t.Fatalf("duplicate delivery double-counted: completed=%d", got.Completed)
	}
	if s := c.Snapshot(); s.PointsDuplicate != 1 || s.PointsCompleted != 1 {
		t.Fatalf("idempotency counters off: %+v", s)
	}
}

func TestSubmitPointRejectsUnknownKeyAndSweep(t *testing.T) {
	c := New(Config{})
	v, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "unit")
	bogus := sweep.PointResult{Key: "not|a|grid|key", IPC: 1}
	if _, err := c.SubmitPoint(context.Background(), v.ID, w.ID, bogus); !errors.Is(err, ErrUnknownPoint) {
		t.Fatalf("foreign key accepted: %v", err)
	}
	if _, err := c.SubmitPoint(context.Background(), "no-such-sweep", w.ID, bogus); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("unknown sweep accepted: %v", err)
	}
}

func TestExpiredLeaseReinjectsAndLateResultStillCounts(t *testing.T) {
	c := New(Config{LeaseTTL: 20 * time.Millisecond, ShardSize: 2})
	v, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "slow")
	l, err := c.Acquire(context.Background(), w.ID, 0)
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}
	time.Sleep(40 * time.Millisecond) // no heartbeat: lease must lapse

	got, _ := c.Sweep(v.ID) // any public call reaps expired leases
	if got.Pending != v.Total || got.Leased != 0 {
		t.Fatalf("after expiry pending=%d leased=%d, want %d/0", got.Pending, got.Leased, v.Total)
	}
	s := c.Snapshot()
	if s.LeasesExpired != 1 || s.PointsReinjected != uint64(len(l.Points)) {
		t.Fatalf("expiry counters off: %+v", s)
	}
	if err := c.Renew(context.Background(), l.ID, w.ID); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("renewing an expired lease: %v, want ErrLeaseGone", err)
	}

	// The slow worker finished a point anyway: idempotent submission is
	// lease-independent, so the work is kept and leaves the queue.
	res := fakeResult(t, l.Points[0], l.WarmInstrs, l.MeasureInstrs, l.Seed)
	if dup, err := c.SubmitPoint(context.Background(), l.SweepID, w.ID, res); err != nil || dup {
		t.Fatalf("late delivery: dup=%v err=%v", dup, err)
	}
	got, _ = c.Sweep(v.ID)
	if got.Completed != 1 || got.Pending != v.Total-1 {
		t.Fatalf("late delivery not absorbed: completed=%d pending=%d", got.Completed, got.Pending)
	}

	// A fresh worker draining afterwards must see each remaining point
	// exactly once.
	w2 := register(t, c, "fresh")
	drain(t, c, w2.ID)
	final, _ := c.Sweep(v.ID)
	if final.State != SweepCompleted || final.Completed != v.Total {
		t.Fatalf("sweep after reinjection: %s %d/%d", final.State, final.Completed, v.Total)
	}
	if s := c.Snapshot(); s.PointsCompleted != uint64(v.Total) || s.PointsDuplicate != 0 {
		t.Fatalf("reinjected points recounted: %+v", s)
	}
}

func TestRenewKeepsLeaseAlive(t *testing.T) {
	c := New(Config{LeaseTTL: 200 * time.Millisecond, ShardSize: 2})
	v, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "heartbeat")
	l, err := c.Acquire(context.Background(), w.ID, 0)
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}
	for i := 0; i < 4; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := c.Renew(context.Background(), l.ID, w.ID); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if got, _ := c.Sweep(v.ID); got.Leased != len(l.Points) {
		t.Fatalf("lease lapsed despite heartbeats: %+v", got)
	}
}

func TestRepeatedFailuresQuarantineWorker(t *testing.T) {
	c := New(Config{MaxWorkerFailures: 2, MaxPointFailures: 100, ShardSize: 1})
	if _, err := c.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	bad := register(t, c, "bad")
	for i := 0; i < 2; i++ {
		l, err := c.Acquire(context.Background(), bad.ID, 0)
		if err != nil || l == nil {
			t.Fatalf("acquire %d: %v %v", i, l, err)
		}
		if err := c.Fail(context.Background(), l.ID, bad.ID, "synthetic"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Acquire(context.Background(), bad.ID, 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("third acquire after 2 failures: %v, want ErrQuarantined", err)
	}
	if s := c.Snapshot(); s.WorkersQuarantined != 1 {
		t.Fatalf("quarantine not counted: %+v", s)
	}
	// The sweep itself is unharmed: another worker drains it.
	good := register(t, c, "good")
	drain(t, c, good.ID)
	if s := c.Snapshot(); s.SweepsCompleted != 1 {
		t.Fatalf("sweep did not survive a quarantined worker: %+v", s)
	}
}

func TestPointRetryBudgetFailsSweep(t *testing.T) {
	c := New(Config{MaxPointFailures: 2, MaxWorkerFailures: 100, ShardSize: 1})
	v, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "cursed")
	// ShardSize 1 and a FIFO queue: failing the head point reinjects it
	// at the tail, so fail total+1 leases to lose one point twice.
	for i := 0; i <= v.Total; i++ {
		l, err := c.Acquire(context.Background(), w.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break // sweep already failed and dropped its queue
		}
		if err := c.Fail(context.Background(), l.ID, w.ID, "synthetic"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepFailed || final.Error == "" {
		t.Fatalf("sweep = %s (%q), want failed with a reason", final.State, final.Error)
	}
	if l, err := c.Acquire(context.Background(), w.ID, 0); err != nil || l != nil {
		t.Fatalf("failed sweep still leases work: %v %v", l, err)
	}
}

func TestRestartResumesFromJournal(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	a := New(Config{JournalDir: dir, ShardSize: 2})
	v, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, a, "first-life")
	drain(t, a, w.ID)

	// "Restart": a brand-new coordinator over the same journal root sees
	// the sweep as already complete, with every point recovered.
	b := New(Config{JournalDir: dir})
	got, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != v.ID {
		t.Fatalf("sweep identity not stable across restart: %s vs %s", got.ID, v.ID)
	}
	if got.State != SweepCompleted || got.Recovered != v.Total || got.Completed != v.Total {
		t.Fatalf("restart view = %+v, want completed with %d recovered", got, v.Total)
	}
	if data, _, ok := b.Artifact(got.ID, "results.json"); !ok || len(data) == 0 {
		t.Fatal("restarted coordinator did not rebuild artifacts from the journal")
	}
	if s := b.Snapshot(); s.PointsRecovered != uint64(v.Total) || s.PointsCompleted != 0 {
		t.Fatalf("recovery counters off: %+v", s)
	}
}

func TestWritePromIncludesWorkerSeries(t *testing.T) {
	c := New(Config{ShardSize: 2})
	if _, err := c.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "prom-worker")
	drain(t, c, w.ID)

	var buf bytes.Buffer
	c.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		"iprefetchd_dist_leases_granted_total",
		"iprefetchd_dist_points_completed_total",
		"iprefetchd_dist_leases_outstanding 0",
		`iprefetchd_dist_worker_points_total{worker="` + w.ID + `/prom-worker"}`,
		`iprefetchd_dist_worker_alive{worker="` + w.ID + `/prom-worker"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The service exposes the sweep counters, from the same snapshot.
	if strings.Contains(out, "iprefetchd_dist_sweeps_") {
		t.Fatalf("exposition repeats the service's sweep series:\n%s", out)
	}
}

// TestLeasesFollowWarmGroups: a fork-warm sweep leases each warm group
// whole, even past ShardSize, and a failed lease's group comes back
// whole too, so every group warms once per lease.
func TestLeasesFollowWarmGroups(t *testing.T) {
	ctx := context.Background()
	c := New(Config{ShardSize: 2})
	spec := testSpec()
	spec.ForkWarm = true
	spec.Workloads = []string{"DB"}
	spec.Bypass = []bool{false, true} // one warm group per L2 install policy
	spec.TableEntries = []int{128, 256, 512}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{} // warm key -> size
	for _, p := range points {
		rs, err := p.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		groups[rs.WarmKey()]++
	}
	if len(groups) != 2 {
		t.Fatalf("spec has %d warm groups, want 2", len(groups))
	}
	for _, n := range groups {
		if n <= 2 {
			t.Fatalf("warm group of %d points is not larger than ShardSize 2", n)
		}
	}
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c, "fork")

	// groupOf checks that a lease holds exactly one whole warm group.
	groupOf := func(l *Lease) string {
		t.Helper()
		var key string
		for i, p := range l.Points {
			rs, err := p.RunSpec()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				key = rs.WarmKey()
			} else if rs.WarmKey() != key {
				t.Fatalf("lease %s mixes warm groups", l.ID)
			}
		}
		if len(l.Points) != groups[key] {
			t.Fatalf("lease %s splits a warm group: %d of its %d points", l.ID, len(l.Points), groups[key])
		}
		return key
	}

	l, err := c.Acquire(ctx, w.ID, 0)
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}
	groupOf(l)
	if err := c.Fail(ctx, l.ID, w.ID, "synthetic"); err != nil {
		t.Fatal(err)
	}
	leased := map[string]bool{}
	for {
		l, err := c.Acquire(ctx, w.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		key := groupOf(l)
		if leased[key] {
			t.Fatalf("warm group leased twice after its points were submitted")
		}
		leased[key] = true
		for _, p := range l.Points {
			if _, err := c.SubmitPoint(ctx, l.SweepID, w.ID, fakeResult(t, p, l.WarmInstrs, l.MeasureInstrs, l.Seed)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Complete(ctx, l.ID, w.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := c.Sweep(v.ID); len(leased) != 2 || got.State != SweepCompleted {
		t.Fatalf("leased %d groups, sweep %s with %d/%d points", len(leased), got.State, got.Completed, got.Total)
	}
}

// TestAcquireWakesOnSubmissionAndReinjection: an idle worker waiting in
// Acquire starts new work at once, without waiting out its poll
// interval, when a sweep is submitted or a lease's points reinject.
func TestAcquireWakesOnSubmissionAndReinjection(t *testing.T) {
	ctx := context.Background()
	c := New(Config{ShardSize: 100})
	got := make(chan *Lease, 1)
	idle := func(workerID string) {
		l, err := c.Acquire(ctx, workerID, time.Minute)
		if err != nil {
			t.Error(err)
		}
		got <- l
	}
	woken := func(what string) *Lease {
		t.Helper()
		select {
		case l := <-got:
			if l == nil {
				t.Fatalf("acquire woken by %s without a lease", what)
			}
			return l
		case <-time.After(10 * time.Second):
			t.Fatalf("idle acquire not woken by %s", what)
		}
		return nil
	}

	w1 := register(t, c, "first")
	go idle(w1.ID)
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	l := woken("a submission")

	w2 := register(t, c, "second")
	go idle(w2.ID)
	time.Sleep(20 * time.Millisecond)
	if err := c.Fail(ctx, l.ID, w1.ID, "synthetic"); err != nil {
		t.Fatal(err)
	}
	if l2 := woken("a reinjection"); len(l2.Points) != len(l.Points) {
		t.Fatalf("reinjected lease has %d points, want %d", len(l2.Points), len(l.Points))
	}
}
