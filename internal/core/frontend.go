package core

import (
	"repro/internal/cache"
	"repro/internal/codesign"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// The paper's prefetch queue and recent-demand-fetch filter hold 32
// entries each (Section 4.1).
const (
	queueEntries  = 32
	recentEntries = 32
)

// FrontEndConfig parameterises one core's instruction-fetch front-end.
type FrontEndConfig struct {
	// L1I is the instruction-cache geometry (paper: 32 KB, 4-way, 64 B).
	L1I cache.Config
	// BypassL2 selects the Section 7 install policy: prefetch fills skip
	// the L2 and are installed there only once proven useful.
	BypassL2 bool
	// IssueSlotsHit/IssueSlotsMiss bound how many queued prefetches can
	// probe the L1 tags per demand fetch. Prefetches are lower priority
	// than demand fetches; a missing fetch leaves the tags idle for
	// longer, hence the larger miss-time allowance.
	IssueSlotsHit  int
	IssueSlotsMiss int
	// Oracle magically eliminates misses of the flagged super-categories
	// (the Figure 4 limits study). Eliminated misses cost nothing.
	Oracle [isa.NumSuperCategories]bool
	// NoRecentFilter disables the recent-demand-fetch filter (ablation
	// A2): every candidate goes straight to the queue.
	NoRecentFilter bool
	// QueueFIFO issues the oldest queued prefetch first instead of the
	// paper's LIFO policy (ablation A4).
	QueueFIFO bool
	// L2UsefulnessFilter enables the Luk & Mowry refinement the paper
	// cites in Section 2.4: the L2 remembers lines whose previous
	// prefetch went unused, and re-prefetches of such lines are dropped.
	L2UsefulnessFilter bool
	// NoTagProbe skips the L1 tag inspection before issuing prefetches,
	// modelling the Haga et al. organisation (Section 2.4) in which a
	// confidence filter in the prediction table replaces cache probes
	// (pair with the discontinuity ConfidenceFilter).
	NoTagProbe bool
	// PrefetchInsert selects the recency depth at which prefetched
	// lines install in L1-I (co-design axis; zero value = MRU, the
	// historical behaviour).
	PrefetchInsert codesign.InsertionPolicy
	// TLBFill lets issued instruction prefetches install their
	// translations into the TLB hierarchy ahead of demand (requires
	// BindTLBs; zero value = off).
	TLBFill codesign.TLBFillPolicy
	// WrongPath drives scheme training (and optionally L1-I pollution)
	// from mispredicted-branch shadows (zero value = off).
	WrongPath codesign.WrongPathPolicy
}

// DefaultFrontEndConfig returns the paper's front-end configuration.
func DefaultFrontEndConfig() FrontEndConfig {
	return FrontEndConfig{
		L1I:            cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		IssueSlotsHit:  4,
		IssueSlotsMiss: 8,
	}
}

// FrontEnd is one core's instruction-fetch path: L1-I cache, prefetch
// prediction engine, recent-demand filter, prefetch queue, and the
// L2-install policy. Not safe for concurrent use.
type FrontEnd struct {
	cfg      FrontEndConfig
	l1       *cache.Cache
	pf       prefetch.Prefetcher
	queue    *PrefetchQueue
	recent   *RecentList
	mem      *MemSystem
	inflight *memory.InFlight // fills heading to this L1
	cs       *stats.CoreStats

	// tlbs is the owning core's translation hierarchy, bound via
	// BindTLBs when a TLBFill policy is active; nil otherwise.
	tlbs *tlb.Hierarchy
	// prefDepth is PrefetchInsert resolved against the L1-I
	// associativity (0 = MRU insert, the historical path).
	prefDepth int

	candBuf []isa.Line

	// issueObs / compRep are pf's optional attribution extensions,
	// resolved once at construction to keep type assertions off the
	// issue hot path. Both are nil for ordinary single schemes.
	issueObs prefetch.IssueObserver
	compRep  prefetch.ComponentReporter

	frontEndState
}

// frontEndState is the front-end's own dynamic state; the L1, the
// queue, the filter, the in-flight tracker and the scheme snapshot
// their own.
type frontEndState struct {
	// Baselines let per-run statistics be carved out of the queue's
	// lifetime counters after a warm-up phase.
	qBaseOverflow, qBaseInvalidated, qBaseHoisted uint64
	compBase                                      []prefetch.ComponentCounters
	expireTick                                    uint64
}

// NewFrontEnd assembles a front-end around the shared memory system.
// cs receives all statistics; pf is owned by the front-end.
func NewFrontEnd(cfg FrontEndConfig, pf prefetch.Prefetcher, mem *MemSystem, cs *stats.CoreStats) *FrontEnd {
	if cfg.IssueSlotsHit < 0 || cfg.IssueSlotsMiss < 0 {
		panic("core: negative issue slots")
	}
	f := &FrontEnd{
		cfg:      cfg,
		l1:       cache.New(cfg.L1I),
		pf:       pf,
		queue:    NewPrefetchQueue(queueEntries),
		recent:   NewRecentList(recentEntries),
		mem:      mem,
		inflight: memory.NewInFlight(),
		cs:       cs,
		candBuf:  make([]isa.Line, 0, 32),
	}
	f.prefDepth = cfg.PrefetchInsert.DepthFor(cfg.L1I.Assoc)
	f.issueObs, _ = pf.(prefetch.IssueObserver)
	f.compRep, _ = pf.(prefetch.ComponentReporter)
	return f
}

// BindTLBs attaches the owning core's translation hierarchy so a
// TLBFill policy can install prefetch translations. Without a binding
// (or with TLBFillNone) prefetches never touch the TLBs.
func (f *FrontEnd) BindTLBs(h *tlb.Hierarchy) { f.tlbs = h }

// L1 exposes the instruction cache (tests/diagnostics).
func (f *FrontEnd) L1() *cache.Cache { return f.l1 }

// Queue exposes the prefetch queue (tests/diagnostics).
func (f *FrontEnd) Queue() *PrefetchQueue { return f.queue }

// Prefetcher exposes the prediction engine (tests/diagnostics).
func (f *FrontEnd) Prefetcher() prefetch.Prefetcher { return f.pf }

// Mem exposes the shared memory system.
func (f *FrontEnd) Mem() *MemSystem { return f.mem }

// FetchLine performs a demand fetch of line l at cycle now. cat is the
// miss category a miss would be attributed to (the CTI that led fetch to
// this line, or sequential). It returns the cycle at which the line's
// instructions are available and whether the access missed L1-I.
func (f *FrontEnd) FetchLine(l isa.Line, cat isa.MissCategory, now uint64) (avail uint64, missed bool) {
	f.cs.L1I.Accesses++
	f.recent.Add(l)
	f.queue.OnDemandFetch(l)

	avail = now
	ev := prefetch.Event{Line: l}

	hit, prior := f.l1.Access(l)
	if hit {
		if prior.Prefetched {
			f.cs.Prefetch.Useful++
			f.pf.OnPrefetchUseful(l)
			ev.PrefetchHit = true
			if c, inFl := f.inflight.Lookup(l, now); inFl {
				// The prefetch was issued but the line hasn't landed:
				// partial coverage — stall for the remainder.
				avail = c
				f.cs.Prefetch.LatePartial++
			}
		}
	} else {
		missed = true
		ev.Miss = true
		f.cs.L1I.Misses++
		f.cs.L1IMissBreakdown.Add(cat)
		if f.cfg.Oracle[isa.SuperOf(cat)] {
			// Limits study: this miss class is magically eliminated.
			f.insertL1(l, cache.Flags{Inst: true, Used: true})
		} else {
			avail = f.mem.AccessInstr(l, cat, now, f.cs)
			f.insertL1(l, cache.Flags{Inst: true, Used: true})
		}
	}

	f.feedPrefetcher(ev)
	slots := f.cfg.IssueSlotsHit
	if missed {
		slots = f.cfg.IssueSlotsMiss
	}
	f.issuePrefetches(slots, now)

	// Bound the in-flight maps without per-fetch sweeps.
	f.expireTick++
	if f.expireTick&0x3fff == 0 {
		f.inflight.Expire(now)
		f.mem.Expire(now)
	}
	return avail, missed
}

// NoteDiscontinuity reports a cross-line non-sequential transition in
// the demand fetch stream to the prediction engine. Callers must only
// report transitions where trigger != target line.
func (f *FrontEnd) NoteDiscontinuity(trigger, target isa.Line, targetMissed bool) {
	f.pf.OnDiscontinuity(trigger, target, targetMissed)
}

// NoteBranch reports a resolved conditional branch to prefetchers that
// observe branches (e.g. wrong-path prefetching), pushing any resulting
// candidates through the normal filter and queue.
func (f *FrontEnd) NoteBranch(takenLine, fallLine isa.Line, followedTaken bool) {
	bo, ok := f.pf.(prefetch.BranchObserver)
	if !ok {
		return
	}
	cands := bo.OnBranch(takenLine, fallLine, followedTaken, f.candBuf[:0])
	f.candBuf = cands[:0]
	f.pushCandidates(cands)
}

// feedPrefetcher collects candidates for the fetch event and pushes the
// survivors of the recent-demand filter into the queue.
func (f *FrontEnd) feedPrefetcher(ev prefetch.Event) {
	cands := f.pf.OnFetch(ev, f.candBuf[:0])
	f.candBuf = cands[:0]
	f.pushCandidates(cands)
}

// pushCandidates runs candidates through the recent-demand filter and
// into the queue, with accounting.
func (f *FrontEnd) pushCandidates(cands []isa.Line) {
	for _, c := range cands {
		f.cs.Prefetch.Generated++
		if !f.cfg.NoRecentFilter && f.recent.Contains(c) {
			f.cs.Prefetch.FilteredRecent++
			continue
		}
		if !f.queue.Push(c) {
			f.cs.Prefetch.FilteredDup++
		}
	}
}

// issuePrefetches pops up to slots queued prefetches, tag-probes them,
// and initiates fills for the ones not already present or in flight.
func (f *FrontEnd) issuePrefetches(slots int, now uint64) {
	fifo := f.cfg.QueueFIFO
	for i := 0; i < slots; i++ {
		var l isa.Line
		var ok bool
		if fifo {
			l, ok = f.queue.PopOldest()
		} else {
			l, ok = f.queue.PopNewest()
		}
		if !ok {
			return
		}
		if !f.cfg.NoTagProbe {
			if f.l1.Probe(l) || f.inflight.Contains(l) {
				f.cs.Prefetch.ProbedInCache++
				continue
			}
		} else if f.inflight.Contains(l) {
			// Even without tag probes, the MSHR file is visible.
			f.cs.Prefetch.ProbedInCache++
			continue
		}
		if f.cfg.L2UsefulnessFilter && f.mem.WasUselessPrefetch(l) {
			f.cs.Prefetch.FilteredUseless++
			continue
		}
		f.cs.Prefetch.Issued++
		if f.issueObs != nil {
			f.issueObs.OnPrefetchIssued(l)
		}
		if f.cfg.TLBFill != codesign.TLBFillNone && f.tlbs != nil {
			if f.tlbs.PrefetchFillI(l.Base(f.cfg.L1I.LineBytes), f.cfg.TLBFill == codesign.TLBFillSecondary) {
				f.cs.Prefetch.ITLBPrefetchFills++
			}
		}
		avail, _ := f.mem.PrefetchInstr(l, now, !f.cfg.BypassL2)
		f.inflight.Start(l, avail)
		f.insertL1(l, cache.Flags{Inst: true, Prefetched: true})
	}
}

// NoteMispredict models wrong-path fetch after a mispredicted branch:
// the front-end runs WrongPath.Depth sequential lines starting at the
// wrong-path line before the misprediction resolves. In train mode the
// scheme sees those fetches (and may queue prefetches for them); in
// pollute mode absent lines are additionally brought into L1-I as
// prefetched fills, modelling wrong-path cache pollution.
func (f *FrontEnd) NoteMispredict(wrong isa.Line, now uint64) {
	if f.cfg.WrongPath.Mode == codesign.WrongPathOff {
		return
	}
	pollute := f.cfg.WrongPath.Mode == codesign.WrongPathPollute
	for i := 0; i < f.cfg.WrongPath.Depth; i++ {
		l := wrong + isa.Line(i)
		f.cs.Prefetch.WrongPathFetches++
		present := f.l1.Probe(l)
		f.feedPrefetcher(prefetch.Event{Line: l, Miss: !present})
		if pollute && !present && !f.inflight.Contains(l) {
			f.cs.Prefetch.WrongPathFills++
			f.cs.Prefetch.Issued++
			if f.issueObs != nil {
				f.issueObs.OnPrefetchIssued(l)
			}
			avail, _ := f.mem.PrefetchInstr(l, now, !f.cfg.BypassL2)
			f.inflight.Start(l, avail)
			f.insertL1(l, cache.Flags{Inst: true, Prefetched: true})
		}
	}
}

// insertL1 fills the L1 and applies the eviction side of the bypass
// policy: a victim that was demand-used but never made it into the L2
// (a bypassed prefetch) is installed there now, proven useful.
func (f *FrontEnd) insertL1(l isa.Line, flags cache.Flags) {
	var victim cache.Victim
	var evicted bool
	if f.prefDepth > 0 && flags.Prefetched {
		victim, evicted = f.l1.InsertAtDepth(l, flags, f.prefDepth)
	} else {
		victim, evicted = f.l1.Insert(l, flags)
	}
	if !evicted {
		return
	}
	if victim.Flags.Prefetched && !victim.Flags.Used {
		f.cs.Prefetch.EvictedUnused++
	}
	f.inflight.Complete(victim.Line)
	if eo, ok := f.pf.(prefetch.EvictionObserver); ok {
		eo.OnL1Eviction(victim.Line, victim.Flags.Used)
	}
	if f.cfg.BypassL2 && victim.Flags.Used {
		f.mem.InstallProven(victim.Line)
	}
	if f.cfg.L2UsefulnessFilter && victim.Flags.Prefetched && !victim.Flags.Used {
		f.mem.NoteUselessPrefetch(victim.Line)
	}
}

// ResetStatsBaseline marks the current queue counters as the zero point
// for the next Finalize (called when warm-up ends and measurement
// begins).
func (f *FrontEnd) ResetStatsBaseline() {
	f.qBaseOverflow = f.queue.DroppedOverflow()
	f.qBaseInvalidated = f.queue.Invalidated()
	f.qBaseHoisted = f.queue.Hoisted()
	if f.compRep != nil {
		f.compBase = append(f.compBase[:0], f.compRep.ComponentCounters()...)
	}
}

// Finalize copies queue-resident counters into the stats record, and
// for composite prefetchers the per-component attribution deltas since
// the last baseline.
func (f *FrontEnd) Finalize() {
	f.cs.Prefetch.DroppedOverflow = f.queue.DroppedOverflow() - f.qBaseOverflow
	f.cs.Prefetch.Invalidated = f.queue.Invalidated() - f.qBaseInvalidated
	f.cs.Prefetch.Hoisted = f.queue.Hoisted() - f.qBaseHoisted
	if f.compRep == nil {
		return
	}
	cur := f.compRep.ComponentCounters()
	comps := make([]stats.ComponentPrefetchStats, 0, len(cur))
	for i, cc := range cur {
		// ComponentReporter fixes the row order for the instance's
		// lifetime, so baselines subtract by index; the name check
		// guards against a reporter violating that contract.
		if i < len(f.compBase) && f.compBase[i].Name == cc.Name {
			b := f.compBase[i]
			cc.Generated -= b.Generated
			cc.Emitted -= b.Emitted
			cc.Suppressed -= b.Suppressed
			cc.BudgetClipped -= b.BudgetClipped
			cc.Issued -= b.Issued
			cc.Useful -= b.Useful
			cc.ShadowUseful -= b.ShadowUseful
		}
		comps = append(comps, stats.ComponentPrefetchStats{
			Name:         cc.Name,
			Generated:    cc.Generated,
			Emitted:      cc.Emitted,
			Suppressed:   cc.Suppressed,
			Issued:       cc.Issued,
			Useful:       cc.Useful,
			ShadowUseful: cc.ShadowUseful,
		})
	}
	f.cs.Components = comps
}
