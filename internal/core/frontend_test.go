package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/prefetch"
	"repro/internal/stats"
)

func testFE(pf prefetch.Prefetcher, bypass bool) (*FrontEnd, *MemSystem, *stats.CoreStats) {
	cfg := DefaultFrontEndConfig()
	cfg.L1I = cache.Config{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64} // tiny: 8 sets x 2
	cfg.BypassL2 = bypass
	mem := testMem()
	cs := &stats.CoreStats{}
	return NewFrontEnd(cfg, pf, mem, cs), mem, cs
}

func TestFetchMissThenHit(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewNone(), false)
	avail, missed := fe.FetchLine(10, isa.MissSequential, 0)
	if !missed || avail != 425 {
		t.Fatalf("cold fetch: avail=%d missed=%v", avail, missed)
	}
	avail, missed = fe.FetchLine(10, isa.MissSequential, 1000)
	if missed || avail != 1000 {
		t.Fatalf("warm fetch: avail=%d missed=%v", avail, missed)
	}
	if cs.L1I.Accesses != 2 || cs.L1I.Misses != 1 {
		t.Fatalf("stats = %+v", cs.L1I)
	}
	if cs.L1IMissBreakdown.ByCategory[isa.MissSequential] != 1 {
		t.Fatal("breakdown missing")
	}
}

func TestPrefetchEliminatesMiss(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewNextLineOnMiss(), false)
	// Miss on line 10 generates a prefetch of 11, issued immediately.
	fe.FetchLine(10, isa.MissSequential, 0)
	if cs.Prefetch.Issued != 1 {
		t.Fatalf("issued = %d", cs.Prefetch.Issued)
	}
	// Demand fetch of 11 long after the fill landed: hit.
	avail, missed := fe.FetchLine(11, isa.MissSequential, 10000)
	if missed {
		t.Fatal("prefetched line missed")
	}
	if avail != 10000 {
		t.Fatalf("landed prefetch stalled: avail=%d", avail)
	}
	if cs.Prefetch.Useful != 1 {
		t.Fatalf("useful = %d", cs.Prefetch.Useful)
	}
}

func TestLatePrefetchPartialCoverage(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewNextLineOnMiss(), false)
	fe.FetchLine(10, isa.MissSequential, 0) // prefetch of 11 issued at 0, lands ~425
	// Demand at cycle 100: line is in flight; wait the remainder, not a
	// fresh full miss.
	avail, missed := fe.FetchLine(11, isa.MissSequential, 100)
	if missed {
		t.Fatal("in-flight prefetched line counted as L1 miss")
	}
	if avail <= 100 || avail > 500 {
		t.Fatalf("late prefetch avail = %d", avail)
	}
	if cs.Prefetch.LatePartial != 1 || cs.Prefetch.Useful != 1 {
		t.Fatalf("stats = %+v", cs.Prefetch)
	}
}

func TestPrefetchTagTriggersTaggedScheme(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewNextLineTagged(), false)
	fe.FetchLine(10, isa.MissSequential, 0) // miss -> prefetch 11
	fe.FetchLine(11, isa.MissSequential, 5000)
	// First use of prefetched 11 must trigger prefetch of 12.
	if cs.Prefetch.Issued != 2 {
		t.Fatalf("issued = %d, want 2 (tag-triggered)", cs.Prefetch.Issued)
	}
	_, missed := fe.FetchLine(12, isa.MissSequential, 10000)
	if missed {
		t.Fatal("tag-chain did not cover line 12")
	}
}

func TestRecentFilterDropsCandidates(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewNextLineAlways(), false)
	fe.FetchLine(10, isa.MissSequential, 0)
	fe.FetchLine(11, isa.MissSequential, 1000)
	// Fetching 10 again: candidate 11 was recently demand fetched.
	fe.FetchLine(10, isa.MissSequential, 2000)
	if cs.Prefetch.FilteredRecent == 0 {
		t.Fatal("recent filter never fired")
	}
}

func TestBypassPolicyKeepsL2Clean(t *testing.T) {
	fe, mem, cs := testFE(prefetch.NewNextLineOnMiss(), true)
	fe.FetchLine(10, isa.MissSequential, 0) // prefetch 11 issued, bypassing L2
	if mem.L2().Probe(11) {
		t.Fatal("bypassed prefetch installed into L2")
	}
	// Demand line 10 itself IS installed into L2 (demand fills install).
	if !mem.L2().Probe(10) {
		t.Fatal("demand fill missing from L2")
	}
	// Use line 11, then evict it from the tiny L1 by thrashing its set:
	// proven useful, it must now be installed into L2.
	fe.FetchLine(11, isa.MissSequential, 5000)
	set := uint64(11) & 7 // L1 has 8 sets
	thrash := []isa.Line{isa.Line(set + 8*100), isa.Line(set + 8*101), isa.Line(set + 8*102)}
	now := uint64(10000)
	for _, l := range thrash {
		fe.FetchLine(l, isa.MissSequential, now)
		now += 1000
	}
	if !mem.L2().Probe(11) {
		t.Fatal("proven-useful bypassed line not installed into L2 on eviction")
	}
	_ = cs
}

func TestBypassUnusedPrefetchNeverReachesL2(t *testing.T) {
	fe, mem, _ := testFE(prefetch.NewNextLineOnMiss(), true)
	fe.FetchLine(10, isa.MissSequential, 0) // prefetches 11 (never used)
	// Evict 11 by thrashing its set without ever using it.
	set := uint64(11) & 7
	now := uint64(5000)
	for i := 0; i < 4; i++ {
		fe.FetchLine(isa.Line(set+8*uint64(200+i)), isa.MissSequential, now)
		now += 1000
	}
	if mem.L2().Probe(11) {
		t.Fatal("unused bypassed prefetch leaked into L2")
	}
}

func TestConventionalPolicyInstallsPrefetchesIntoL2(t *testing.T) {
	fe, mem, _ := testFE(prefetch.NewNextLineOnMiss(), false)
	fe.FetchLine(10, isa.MissSequential, 0)
	if !mem.L2().Probe(11) {
		t.Fatal("conventional prefetch not installed into L2")
	}
	f, _ := mem.L2().PeekFlags(11)
	if !f.Prefetched || !f.Inst {
		t.Fatalf("L2 flags = %+v", f)
	}
}

func TestOracleEliminatesCategory(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.L1I = cache.Config{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64}
	cfg.Oracle[isa.SuperBranch] = true
	mem := testMem()
	cs := &stats.CoreStats{}
	fe := NewFrontEnd(cfg, prefetch.NewNone(), mem, cs)

	// Branch-category miss: zero cost, line installed.
	avail, missed := fe.FetchLine(10, isa.MissCondTakenFwd, 0)
	if !missed || avail != 0 {
		t.Fatalf("oracle branch miss: avail=%d missed=%v", avail, missed)
	}
	if _, m2 := fe.FetchLine(10, isa.MissSequential, 1); m2 {
		t.Fatal("oracle-installed line not resident")
	}
	// Sequential miss still costs.
	avail, _ = fe.FetchLine(20, isa.MissSequential, 100)
	if avail <= 100 {
		t.Fatal("non-oracle category eliminated")
	}
	// Misses still counted (they were eliminated, not unseen).
	if cs.L1I.Misses != 2 {
		t.Fatalf("misses = %d", cs.L1I.Misses)
	}
}

func TestDiscontinuityEndToEnd(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewDiscontinuity(prefetch.DefaultDiscontinuityConfig()), false)
	// Teach the predictor: discontinuity 10 -> 1000, target missed.
	_, missed := fe.FetchLine(1000, isa.MissCall, 0)
	fe.NoteDiscontinuity(10, 1000, missed)
	// Later, a trigger at 10 must prefetch 1000 and beyond.
	// First evict 1000 from the tiny L1 by thrashing its set, and fetch
	// enough other lines to push 1000 out of the 32-entry recent-demand
	// filter (a genuinely recent line would rightly not be re-prefetched).
	set := uint64(1000) & 7
	now := uint64(5000)
	for i := 0; i < 40; i++ {
		fe.FetchLine(isa.Line(set+8*uint64(300+i)), isa.MissSequential, now)
		now += 1000
	}
	fe.FetchLine(10, isa.MissSequential, 50000) // triggers table probe
	// The demand fetch of 1000 should now hit (prefetched again).
	_, missed = fe.FetchLine(1000, isa.MissCall, 60000)
	if missed {
		t.Fatal("discontinuity prefetch did not cover the target")
	}
	if cs.Prefetch.Useful == 0 {
		t.Fatal("no useful prefetches recorded")
	}
}

func TestIssueSlotLimit(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.L1I = cache.Config{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64}
	cfg.IssueSlotsMiss = 1
	cfg.IssueSlotsHit = 0
	mem := testMem()
	cs := &stats.CoreStats{}
	fe := NewFrontEnd(cfg, prefetch.NewNextNTagged(4), mem, cs)
	fe.FetchLine(10, isa.MissSequential, 0) // 4 candidates, 1 slot
	if cs.Prefetch.Issued != 1 {
		t.Fatalf("issued = %d, want 1", cs.Prefetch.Issued)
	}
	if fe.Queue().Waiting() != 3 {
		t.Fatalf("waiting = %d, want 3", fe.Queue().Waiting())
	}
	// A hit grants zero slots: queue stays.
	fe.FetchLine(10, isa.MissSequential, 1000)
	if cs.Prefetch.Issued != 1 {
		t.Fatalf("hit issued prefetches with 0 slots")
	}
}

func TestProbedInCacheDropped(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewNextLineOnMiss(), false)
	fe.FetchLine(11, isa.MissSequential, 0)    // 11 resident
	fe.FetchLine(10, isa.MissSequential, 1000) // candidate 11: recent filter may catch it
	fe.FetchLine(50, isa.MissSequential, 2000) // flush recency of 11 out? ring is 32, keep simple:
	// Direct check: candidate for a resident, non-recent line.
	for i := isa.Line(100); i < 132; i++ {
		fe.FetchLine(i, isa.MissSequential, 3000+uint64(i)*500) // push 11 out of recent list
	}
	fe.FetchLine(10, isa.MissSequential, 60000) // candidate 11 again; 11 may have been evicted by now
	_ = cs
	// The counters must be internally consistent: issued + drops == generated.
	p := cs.Prefetch
	if p.Generated != p.FilteredRecent+p.FilteredDup+p.Issued+p.ProbedInCache+uint64(fe.Queue().Waiting())+fe.Queue().DroppedOverflow()+fe.Queue().Invalidated() {
		t.Fatalf("prefetch accounting leak: %+v waiting=%d overflow=%d inval=%d",
			p, fe.Queue().Waiting(), fe.Queue().DroppedOverflow(), fe.Queue().Invalidated())
	}
}

func TestFinalizeCopiesQueueCounters(t *testing.T) {
	fe, _, cs := testFE(prefetch.NewNextNTagged(8), false)
	cfgSmallQueue := fe // default queue 32; generate overflow via many misses
	now := uint64(0)
	for i := isa.Line(0); i < 200; i += 16 {
		cfgSmallQueue.FetchLine(i, isa.MissSequential, now)
		now += 10 // barely any issue slots -> queue pressure
	}
	fe.Finalize()
	if cs.Prefetch.DroppedOverflow != fe.Queue().DroppedOverflow() {
		t.Fatal("finalize did not copy overflow count")
	}
	// Baseline reset carves out the measurement window.
	fe.ResetStatsBaseline()
	*cs = stats.CoreStats{}
	fe.Finalize()
	if cs.Prefetch.DroppedOverflow != 0 {
		t.Fatal("baseline not applied")
	}
}

func TestInFlightVictimCompleted(t *testing.T) {
	// When an in-flight prefetched line is evicted before landing, a
	// re-fetch must not time-travel: it misses and re-requests.
	fe, _, _ := testFE(prefetch.NewNextLineOnMiss(), false)
	fe.FetchLine(3, isa.MissSequential, 0) // prefetch 4 in flight (set 4)
	// Evict line 4 from its set while still in flight.
	set := uint64(4) & 7
	fe.FetchLine(isa.Line(set+8*50), isa.MissSequential, 10)
	fe.FetchLine(isa.Line(set+8*51), isa.MissSequential, 20)
	fe.FetchLine(isa.Line(set+8*52), isa.MissSequential, 30)
	avail, missed := fe.FetchLine(4, isa.MissSequential, 40)
	if !missed {
		t.Fatal("evicted in-flight line hit")
	}
	if avail <= 40 {
		t.Fatal("free refetch of evicted line")
	}
	_ = memory.PortConfig{}
}

func TestL2UsefulnessFilter(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.L1I = cache.Config{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64}
	cfg.L2UsefulnessFilter = true
	mem := testMem()
	cs := &stats.CoreStats{}
	fe := NewFrontEnd(cfg, prefetch.NewNextLineOnMiss(), mem, cs)

	// Miss on 10 prefetches 11 (conventional install -> line lands in L2
	// with the Prefetched flag). Evict 11 from L1 unused: the L2 entry
	// must be marked useless.
	fe.FetchLine(10, isa.MissSequential, 0)
	set := uint64(11) & 7
	now := uint64(5000)
	for i := 0; i < 4; i++ {
		fe.FetchLine(isa.Line(set+8*uint64(400+i)), isa.MissSequential, now)
		now += 2000
	}
	if !mem.WasUselessPrefetch(11) {
		t.Fatal("unused prefetched victim not marked useless in L2")
	}

	// Evict line 10 (set 2) and push it out of the recent list, then
	// re-trigger the prefetch of 11: the usefulness filter must drop it
	// at issue time.
	set10 := uint64(10) & 7
	for i := 0; i < 40; i++ {
		fe.FetchLine(isa.Line(set10+8*uint64(500+i)), isa.MissSequential, now)
		now += 2000
	}
	issuedBefore := cs.Prefetch.Issued
	uselessBefore := cs.Prefetch.FilteredUseless
	fe.FetchLine(10, isa.MissSequential, now)
	if cs.Prefetch.FilteredUseless == uselessBefore {
		t.Fatalf("useless filter never fired (issued %d -> %d)", issuedBefore, cs.Prefetch.Issued)
	}

	// A demand use of line 11 clears the marker.
	fe.FetchLine(11, isa.MissSequential, now+5000)
	if mem.WasUselessPrefetch(11) {
		t.Fatal("demand use did not clear the useless marker")
	}
}

func TestUselessMarkerSecondChance(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 512, Assoc: 2, LineBytes: 64})
	c.Insert(1, cache.Flags{Inst: true, Prefetched: true})
	c.SetUselessPrefetch(1, true)
	// Demand access clears both Prefetched and UselessPrefetch.
	c.Access(1)
	f, _ := c.PeekFlags(1)
	if f.UselessPrefetch || f.Prefetched || !f.Used {
		t.Fatalf("flags after demand use: %+v", f)
	}
}
