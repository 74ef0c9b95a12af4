package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
)

// forkEngine keeps the differential matrix fast; the fork-vs-fresh
// identity is exact at any budget, so small ones lose nothing.
func forkEngine() *Engine {
	return NewEngine(60_000, 120_000, 1)
}

func TestWarmSpecIsSchemeNeutral(t *testing.T) {
	w := Workload{Name: "DB", Apps: []string{"DB"}}
	spec := RunSpec{
		Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true,
		TableEntries: 512, PrefetchAhead: 4, NoCounter: true,
		NoRecentFilter: true, QueueFIFO: true, ConfidenceFilter: true,
		InsertPolicy: "mid", TLBFill: "primary", WrongPath: "train",
		L2:       cache.Config{SizeBytes: 1 << 20, Assoc: 4, LineBytes: 64},
		ForkWarm: true,
	}
	ws := spec.warmSpec()
	if ws.Scheme != "none" || ws.TableEntries != 0 || ws.PrefetchAhead != 0 ||
		ws.NoCounter || ws.NoRecentFilter || ws.QueueFIFO || ws.ConfidenceFilter || ws.ForkWarm {
		t.Fatalf("warm spec kept scheme-specific knobs: %+v", ws)
	}
	if ws.Workload.Name != "DB" || ws.Cores != 4 || !ws.Bypass ||
		ws.InsertPolicy != "mid" || ws.TLBFill != "primary" || ws.WrongPath != "train" ||
		ws.L2 != spec.L2 {
		t.Fatalf("warm spec dropped machine-level knobs: %+v", ws)
	}

	// Different schemes over the same machine share a warm key; a
	// machine-level change splits it.
	other := spec
	other.Scheme = "mana"
	other.TableEntries = 0
	if spec.WarmKey() != other.WarmKey() {
		t.Fatal("schemes over one machine have different warm keys")
	}
	bigger := spec
	bigger.L2.SizeBytes = 2 << 20
	if spec.WarmKey() == bigger.WarmKey() {
		t.Fatal("different L2 geometries share a warm key")
	}
}

func TestForkWarmIsPartOfKey(t *testing.T) {
	w := Workload{Name: "DB", Apps: []string{"DB"}}
	cold := RunSpec{Workload: w, Cores: 1, Scheme: "none"}
	fork := cold
	fork.ForkWarm = true
	if cold.key() == fork.key() {
		t.Fatal("fork-warm methodology not in the memo key")
	}
	if !strings.HasSuffix(fork.key(), "|fork") {
		t.Fatalf("fork key %q lacks the |fork suffix (historical keys must not shift)", fork.key())
	}
}

// TestForkVsFreshDifferential is the gate for the fork-and-diverge
// methodology: for every scheme family and co-design axis, a point
// resolved through the batching layer (shared warm snapshot) must be
// bit-identical to the same spec run solo (its own warm + snapshot +
// restore). Any divergence means some piece of machine state escaped
// Snapshot/Restore.
func TestForkVsFreshDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	db := Workload{Name: "DB", Apps: []string{"DB"}}
	specs := []RunSpec{
		{Workload: db, Cores: 1, Scheme: "none"},
		{Workload: db, Cores: 1, Scheme: "discontinuity", Bypass: true},
		{Workload: db, Cores: 1, Scheme: "discontinuity", Bypass: true, TableEntries: 512, InsertPolicy: "mid"},
		{Workload: db, Cores: 1, Scheme: "discontinuity", Bypass: true, WrongPath: "train"},
		{Workload: db, Cores: 1, Scheme: "hybrid:discontinuity+streams", Bypass: true},
		{Workload: db, Cores: 1, Scheme: "mana", Bypass: true},
		{Workload: db, Cores: 1, Scheme: "progmap", Bypass: true, TLBFill: "primary"},
		{Workload: db, Cores: 4, Scheme: "none"},
		{Workload: db, Cores: 4, Scheme: "discontinuity", Bypass: true},
	}
	for i := range specs {
		specs[i].ForkWarm = true
	}

	// Solo reference: each spec forks from its own private warm run.
	solo := forkEngine()
	want := make([]Result, len(specs))
	for i, s := range specs {
		r, err := solo.Run(s)
		if err != nil {
			t.Fatalf("solo %s: %v", s.key(), err)
		}
		want[i] = r
	}

	// Batched: one warm per warm-key group, members diverge from the
	// shared snapshot.
	batch := forkEngine()
	got := make([]Result, len(specs))
	err := batch.RunBatchContext(context.Background(), specs, 4,
		func(i int, res Result, err error, _ time.Duration) {
			if err != nil {
				t.Errorf("batch %s: %v", specs[i].key(), err)
				return
			}
			got[i] = res
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("spec %s: forked result diverges from fresh\nfresh: %+v\nfork:  %+v",
				specs[i].key(), want[i].Total, got[i].Total)
		}
	}

	// The batch ran one warm per distinct warm key plus one measurement
	// per spec — nothing else.
	warmKeys := map[string]bool{}
	for _, s := range specs {
		warmKeys[s.WarmKey()] = true
	}
	c := batch.Counters()
	if wantSims := uint64(len(specs) + len(warmKeys)); c.Simulations != wantSims {
		t.Errorf("batch ran %d simulations, want %d (%d specs + %d warms)",
			c.Simulations, wantSims, len(specs), len(warmKeys))
	}
}

// TestForkNoneMatchesColdBaseline checks the methodology invariant that
// makes fork-warm trustworthy: for the scheme-neutral spec the warm
// configuration IS the measure configuration, so fork-and-diverge
// (warm, snapshot, restore into an identical machine, measure) must
// reproduce the plain cold schedule (warm, measure) exactly.
func TestForkNoneMatchesColdBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	db := Workload{Name: "DB", Apps: []string{"DB"}}
	e := forkEngine()
	cold, err := e.Run(RunSpec{Workload: db, Cores: 1, Scheme: "none"})
	if err != nil {
		t.Fatal(err)
	}
	fork, err := e.Run(RunSpec{Workload: db, Cores: 1, Scheme: "none", ForkWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	// Identical up to the methodology marker on the spec echo.
	fork.Spec.ForkWarm = false
	if !reflect.DeepEqual(cold, fork) {
		t.Fatalf("fork-warm 'none' diverges from the cold schedule\ncold: %+v\nfork: %+v",
			cold.Total, fork.Total)
	}
}

// TestWaiterSurvivesLeaderCancel is the regression for the dedup bug:
// a caller that joined an in-flight run used to inherit the leader's
// cancellation even though its own context was alive. It must retry
// (becoming the new leader) and produce the result.
func TestWaiterSurvivesLeaderCancel(t *testing.T) {
	e := NewEngine(1_500_000, 3_000_000, 1)
	spec := RunSpec{Workload: Workload{Name: "DB", Apps: []string{"DB"}}, Cores: 1, Scheme: "none"}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.RunContext(leaderCtx, spec)
		leaderErr <- err
	}()
	// Wait for the leader to be in flight, then for the waiter to join.
	waitFor := func(cond func(Counters) bool, what string) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond(e.Counters()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, e.Counters())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(func(c Counters) bool { return c.Simulations == 1 }, "leader start")

	var wg sync.WaitGroup
	wg.Add(1)
	var waiterRes Result
	var waiterErr error
	go func() {
		defer wg.Done()
		waiterRes, waiterErr = e.RunContext(context.Background(), spec)
	}()
	waitFor(func(c Counters) bool { return c.DedupWaits == 1 }, "waiter join")

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	wg.Wait()
	if waiterErr != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", waiterErr)
	}
	if waiterRes.Total.Instructions == 0 {
		t.Fatal("waiter returned an empty result")
	}
	if c := e.Counters(); c.Simulations != 2 {
		t.Fatalf("waiter did not retry as the new leader: %+v", c)
	}
}

// TestLineSizeResolution is the regression for the geometry bug: the
// L2 override used to clobber an L1I line-size propagation decision
// made before it was applied, so an L2-only non-default line size
// never reached the other levels, and inconsistent overrides were
// silently accepted.
func TestLineSizeResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("several full runs")
	}
	e := forkEngine()
	db := Workload{Name: "DB", Apps: []string{"DB"}}

	t.Run("inconsistent overrides rejected", func(t *testing.T) {
		_, err := e.Run(RunSpec{Workload: db, Cores: 1, Scheme: "none",
			L1I: cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 128},
			L2:  cache.Config{SizeBytes: 1 << 20, Assoc: 4, LineBytes: 64}})
		if err == nil || !strings.Contains(err.Error(), "inconsistent line sizes") {
			t.Fatalf("err = %v, want inconsistent line sizes", err)
		}
	})

	t.Run("L1I-only propagates", func(t *testing.T) {
		r, err := e.Run(RunSpec{Workload: db, Cores: 1, Scheme: "none",
			L1I: cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 128}})
		if err != nil {
			t.Fatal(err)
		}
		if ratio := r.Total.L1I.MissRatio(); ratio <= 0 || ratio > 0.5 {
			t.Fatalf("L1I miss ratio with 128B lines = %v", ratio)
		}
	})

	t.Run("L2-only propagates", func(t *testing.T) {
		// An L2-only 128B override must now build the same machine as
		// spelling the induced L1I geometry (default size/assoc, 128B
		// lines) explicitly — before the fix the L2-only form left every
		// other level at 64B.
		l2 := cache.Config{SizeBytes: 1 << 20, Assoc: 4, LineBytes: 128}
		implicit, err := e.Run(RunSpec{Workload: db, Cores: 1, Scheme: "none", L2: l2})
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := e.Run(RunSpec{Workload: db, Cores: 1, Scheme: "none", L2: l2,
			L1I: cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 128}})
		if err != nil {
			t.Fatal(err)
		}
		if implicit.Total.Cycles != explicit.Total.Cycles ||
			implicit.Total.L1I.Misses != explicit.Total.L1I.Misses {
			t.Fatalf("L2-only override builds a different machine than the explicit spelling:\nimplicit: %+v\nexplicit: %+v",
				implicit.Total, explicit.Total)
		}
	})

	t.Run("combined consistent accepted", func(t *testing.T) {
		r, err := e.Run(RunSpec{Workload: db, Cores: 1, Scheme: "none",
			L1I: cache.Config{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 128},
			L2:  cache.Config{SizeBytes: 1 << 20, Assoc: 8, LineBytes: 128}})
		if err != nil {
			t.Fatal(err)
		}
		if ratio := r.Total.L1I.MissRatio(); ratio <= 0 || ratio > 0.5 {
			t.Fatalf("L1I miss ratio with combined 128B overrides = %v", ratio)
		}
	})
}

// TestWarmContextShortCircuits is the regression for the warm-loop bug:
// after the first spec failed, the loop used to keep submitting every
// remaining spec.
func TestWarmContextShortCircuits(t *testing.T) {
	// One slot serialises the pool, so the bad spec's failure lands
	// before the loop can race far ahead.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	e := smallEngine()
	w := Workload{Name: "DB", Apps: []string{"DB"}}
	specs := []RunSpec{{Workload: w, Cores: 1, Scheme: "zzz"}} // fails at build
	for i := 0; i < 8; i++ {
		s := RunSpec{Workload: w, Cores: 1, Scheme: "discontinuity", TableEntries: 64 << i, Bypass: true}
		specs = append(specs, s)
	}
	if err := e.WarmContext(context.Background(), specs); err == nil {
		t.Fatal("bad spec warmed without error")
	}
	// The bad spec plus at most one valid spec already past the check;
	// without the short-circuit all 9 would have run.
	if c := e.Counters(); c.Simulations > 2 {
		t.Fatalf("WarmContext kept submitting after the first error: %+v", c)
	}

	// The same executor with fork groups mixed in: at one worker the
	// failing solo spec takes the only slot before any later spec or
	// group warm-up can, and it fails before handing the slot back, so
	// nothing else may start and the batch must not deadlock.
	t.Run("RunBatchContext mixed fork and solo at one worker", func(t *testing.T) {
		e := smallEngine()
		fork := func(entries int) RunSpec {
			return RunSpec{Workload: w, Cores: 1, Scheme: "discontinuity", TableEntries: entries, Bypass: true, ForkWarm: true}
		}
		specs := []RunSpec{
			{Workload: w, Cores: 1, Scheme: "zzz"}, // fails at build
			fork(256),
			{Workload: w, Cores: 1, Scheme: "none"},
			fork(512),
			{Workload: w, Cores: 1, Scheme: "n4l-tagged"},
			fork(1024),
		}
		var mu sync.Mutex
		var delivered []int
		err := e.RunBatchContext(context.Background(), specs, 1, func(i int, _ Result, _ error, _ time.Duration) {
			mu.Lock()
			delivered = append(delivered, i)
			mu.Unlock()
		})
		if err == nil {
			t.Fatal("bad spec ran without error")
		}
		if len(delivered) != 1 || delivered[0] != 0 {
			t.Fatalf("specs started after the failure: delivered %v, want [0]", delivered)
		}
		if c := e.Counters(); c.Simulations != 1 {
			t.Fatalf("RunBatchContext kept starting work after the first error: %+v", c)
		}
	})
}

// TestRunBatchContextMemoAndSolo covers the batching layer's edges:
// memoised members skip the warm entirely, and non-fork specs resolve
// through the ordinary path inside the same batch.
func TestRunBatchContextMemoAndSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs")
	}
	db := Workload{Name: "DB", Apps: []string{"DB"}}
	e := forkEngine()
	forkSpec := RunSpec{Workload: db, Cores: 1, Scheme: "discontinuity", Bypass: true, ForkWarm: true}
	coldSpec := RunSpec{Workload: db, Cores: 1, Scheme: "none"}

	// Prime the memo with the fork spec.
	if _, err := e.Run(forkSpec); err != nil {
		t.Fatal(err)
	}
	base := e.Counters()

	var mu sync.Mutex
	seen := map[int]bool{}
	err := e.RunBatchContext(context.Background(), []RunSpec{forkSpec, coldSpec}, 2,
		func(i int, _ Result, err error, _ time.Duration) {
			if err != nil {
				t.Errorf("spec %d: %v", i, err)
			}
			mu.Lock()
			seen[i] = true
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("onResult missed specs: %v", seen)
	}
	c := e.Counters()
	if c.MemoHits != base.MemoHits+1 {
		t.Errorf("memoised fork member did not hit the memo: %+v", c)
	}
	// Only the cold spec simulated; no warm ran for the all-memoised group.
	if c.Simulations != base.Simulations+1 {
		t.Errorf("batch ran %d extra simulations, want 1", c.Simulations-base.Simulations)
	}
}

// TestRunBatchContextPropagatesWarmFailure: a warm phase that cannot
// even build must fail every member of its group, not hang the batch.
func TestRunBatchContextPropagatesWarmFailure(t *testing.T) {
	e := forkEngine()
	bad := RunSpec{Workload: Workload{Name: "X", Apps: []string{"X"}}, Cores: 1, Scheme: "none", ForkWarm: true}
	var calls int
	var mu sync.Mutex
	err := e.RunBatchContext(context.Background(), []RunSpec{bad, bad}, 1,
		func(i int, _ Result, err error, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if err == nil {
				t.Errorf("member %d got no error from a failed warm", i)
			}
		})
	if err == nil {
		t.Fatal("batch swallowed the warm failure")
	}
	if calls == 0 {
		t.Fatal("onResult never called for failed members")
	}
}
