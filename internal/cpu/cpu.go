// Package cpu is the per-core timing model: a cycle-based approximation
// of the paper's out-of-order core (8-wide fetch, 3-wide issue, 64-entry
// window/ROB, 16-stage pipeline) driven at basic-block granularity.
//
// Modelling choices, per the paper's own arguments:
//
//   - Instruction misses stall the front end for their full remaining
//     latency — "instruction misses are usually more expensive than data
//     misses since they stall the processor pipeline".
//   - Data misses are partially overlapped by the out-of-order window:
//     only a configurable fraction of their latency lands on the
//     critical path (L2 hits overlap more than memory misses; stores
//     overlap almost entirely via the store buffer).
//   - Branch mispredicts cost a front-end refill proportional to the
//     pipeline depth; taken, correctly predicted CTIs are free (the
//     machine has a BTB and RAS).
//   - Wrong-path fetch effects are not modelled (no wrong-path
//     prefetching — the paper treats it as a separate scheme).
//
// Absolute IPC is approximate; the experiments report performance
// *ratios* against a no-prefetch baseline run under identical
// assumptions, which is also how the paper presents its results.
package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Config parameterises the core timing model.
type Config struct {
	// IssueWidth bounds sustained instruction throughput (paper: 3).
	IssueWidth int
	// PipelineRefillCycles is the branch-mispredict penalty (a 16-stage
	// pipeline refills its front end in roughly 12 cycles).
	PipelineRefillCycles float64
	// TrapEntryCycles is the cost of entering a trap handler.
	TrapEntryCycles float64
	// L1LatencyCycles is charged on top of a fetch that hits a line
	// still in flight; L1 hit latency itself is pipelined and free.
	L1LatencyCycles uint64

	// L1D is the data-cache geometry (paper: 32 KB, 4-way, 64 B).
	L1D cache.Config
	// Bpred sizes the branch predictors.
	Bpred bpred.Config
	// TLB sizes the translation hierarchy.
	TLB tlb.HierarchyConfig

	// ModelWritebacks makes stores dirty cache lines, with dirty
	// evictions written back down the hierarchy (pair with the
	// MemSystem's ModelWritebacks).
	ModelWritebacks bool

	// Data-miss overlap fractions: the share of a data miss's latency
	// that lands on the critical path.
	L2HitChargeFrac float64 // L1-D miss, L2 hit
	MemChargeFrac   float64 // L1-D miss, L2 miss (to memory)
	StoreChargeFrac float64 // stores (drained via the store buffer)
}

// DefaultConfig returns the paper's core configuration with the timing
// model's calibrated overlap fractions.
func DefaultConfig() Config {
	return Config{
		IssueWidth:           3,
		PipelineRefillCycles: 12,
		TrapEntryCycles:      30,
		L1LatencyCycles:      4,
		L1D:                  cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		Bpred:                bpred.DefaultConfig(),
		TLB:                  tlb.DefaultHierarchyConfig(),
		L2HitChargeFrac:      0.30,
		MemChargeFrac:        0.45,
		StoreChargeFrac:      0.05,
	}
}

// Core drives one hardware context: it pulls basic blocks from a
// workload source, fetches their lines through the front-end, models
// execution timing, and accumulates statistics. Not safe for concurrent
// use.
type Core struct {
	cfg  Config
	fe   *core.FrontEnd
	l1d  *cache.Cache
	bp   *bpred.Predictor
	tlbs *tlb.Hierarchy
	src  workload.Source
	cs   *stats.CoreStats

	lineBytes int

	coreState
}

// coreState is the core's own dynamic state: the timing clock and the
// block-granular fetch cursor. The caches, predictors, front-end,
// statistics record and workload source snapshot their own.
type coreState struct {
	clock      float64
	startClock float64

	blk         isa.Block
	prevCTI     isa.CTIKind
	prevEndLine isa.Line
	started     bool
	lastLine    isa.Line
	haveLast    bool
}

// New builds a core. fe must share its MemSystem with the other cores of
// the chip; cs is the same stats record handed to the front-end.
func New(cfg Config, fe *core.FrontEnd, src workload.Source, cs *stats.CoreStats) *Core {
	if cfg.IssueWidth < 1 {
		panic("cpu: issue width must be >= 1")
	}
	c := &Core{
		cfg:       cfg,
		fe:        fe,
		l1d:       cache.New(cfg.L1D),
		bp:        bpred.New(cfg.Bpred),
		tlbs:      tlb.NewHierarchy(cfg.TLB),
		src:       src,
		cs:        cs,
		lineBytes: fe.L1().Config().LineBytes,
		// A block's MemOps is never nil, so a restored core's equals
		// its source's even when the last block had no data accesses.
		coreState: coreState{blk: isa.Block{MemOps: []isa.MemOp{}}},
	}
	// Let a prefetch-triggered TLB-fill policy reach this core's
	// translation hierarchy (a no-op under the default policy).
	fe.BindTLBs(c.tlbs)
	return c
}

// Clock returns the core's current cycle.
func (c *Core) Clock() float64 { return c.clock }

// Stats returns the core's statistics record.
func (c *Core) Stats() *stats.CoreStats { return c.cs }

// FrontEnd returns the core's fetch front-end.
func (c *Core) FrontEnd() *core.FrontEnd { return c.fe }

// Step executes one basic block, advancing the core's clock.
func (c *Core) Step() {
	c.src.Next(&c.blk)
	blk := &c.blk

	// --- Fetch ---
	c.clock += float64(c.tlbs.TranslateI(blk.PC))
	first, last := blk.Lines(c.lineBytes)
	pendingCat := isa.CategoryOf(c.prevCTI)
	for l := first; l <= last; l++ {
		if c.haveLast && l == c.lastLine {
			// Still consuming the previously fetched line.
			continue
		}
		cat := isa.MissSequential
		if l == first {
			cat = pendingCat
		}
		avail, missed := c.fe.FetchLine(l, cat, uint64(c.clock))
		if fav := float64(avail); fav > c.clock {
			c.cs.FetchStallCycles += uint64(fav - c.clock)
			c.clock = fav + float64(c.cfg.L1LatencyCycles)
		}
		if l == first && c.started && c.prevCTI.ChangesFlow() && c.prevEndLine != first {
			c.fe.NoteDiscontinuity(c.prevEndLine, first, missed)
		}
		c.lastLine = l
		c.haveLast = true
	}

	// --- Execute ---
	c.clock += float64(blk.NumInstrs) / float64(c.cfg.IssueWidth)
	c.execMemOps(blk)
	c.predict(blk)

	c.cs.Instructions += uint64(blk.NumInstrs)
	c.prevCTI = blk.CTI
	c.prevEndLine = isa.LineOf(blk.End()-1, c.lineBytes)
	c.started = true
	c.cs.Cycles = uint64(c.clock - c.startClock)
}

// predict models control-transfer prediction at the block's terminator.
func (c *Core) predict(blk *isa.Block) {
	branchPC := blk.End() - isa.InstrBytes
	switch blk.CTI {
	case isa.CTICondTakenFwd, isa.CTICondTakenBwd, isa.CTICondNotTaken:
		taken := blk.CTI != isa.CTICondNotTaken
		c.cs.BranchPredictions++
		correct := c.bp.PredictCond(branchPC, taken)
		if !correct {
			c.mispredict()
		}
		// Branch-observing prefetchers (wrong-path) see both outcomes.
		fallLine := isa.LineOf(blk.End(), c.lineBytes)
		takenLine := fallLine
		if taken {
			takenLine = isa.LineOf(blk.Target, c.lineBytes)
		}
		c.fe.NoteBranch(takenLine, fallLine, taken)
		// Wrong-path modelling: a mispredicted taken branch ran down its
		// fall-through before resolving (the not-taken direction's target
		// is architecturally known; the taken direction of a mispredicted
		// not-taken branch is not, so only this case is modelled).
		if !correct && taken {
			c.fe.NoteMispredict(fallLine, uint64(c.clock))
		}
	case isa.CTICall:
		// Direct call: target embedded in the instruction; push the RAS.
		c.bp.Call(blk.End())
	case isa.CTIJump:
		c.cs.BranchPredictions++
		if !c.bp.PredictIndirect(branchPC, blk.Target) {
			c.mispredict()
		}
	case isa.CTIReturn:
		c.cs.BranchPredictions++
		if !c.bp.PredictReturn(blk.Target) {
			c.mispredict()
		}
	case isa.CTITrap:
		c.clock += c.cfg.TrapEntryCycles
	}
}

func (c *Core) mispredict() {
	c.cs.BranchMispredicts++
	c.cs.BpredStallCycles += uint64(c.cfg.PipelineRefillCycles)
	c.clock += c.cfg.PipelineRefillCycles
}

// execMemOps models the block's data accesses.
func (c *Core) execMemOps(blk *isa.Block) {
	for _, m := range blk.MemOps {
		c.clock += float64(c.tlbs.TranslateD(m.Addr))
		line := isa.LineOf(m.Addr, c.cfg.L1D.LineBytes)
		c.cs.L1D.Accesses++
		if hit, _ := c.l1d.Access(line); hit {
			if c.cfg.ModelWritebacks && m.Kind == isa.MemStore {
				c.l1d.MarkDirty(line)
			}
			continue
		}
		c.cs.L1D.Misses++
		now := uint64(c.clock)
		avail := c.fe.Mem().AccessData(line, now, c.cs)
		fill := cache.Flags{Used: true, Dirty: c.cfg.ModelWritebacks && m.Kind == isa.MemStore}
		victim, evicted := c.l1d.Insert(line, fill)
		if evicted && c.cfg.ModelWritebacks && victim.Flags.Dirty {
			c.fe.Mem().WritebackData(victim.Line, now)
		}
		delta := float64(avail - now)
		var frac float64
		switch {
		case m.Kind == isa.MemStore:
			frac = c.cfg.StoreChargeFrac
		case avail-now <= c.fe.Mem().L2Latency()+1:
			frac = c.cfg.L2HitChargeFrac
		default:
			frac = c.cfg.MemChargeFrac
		}
		charge := delta * frac
		c.cs.DataStallCycles += uint64(charge)
		c.clock += charge
	}
}

// Run executes until the core has retired at least n more instructions.
func (c *Core) Run(n uint64) {
	target := c.cs.Instructions + n
	for c.cs.Instructions < target {
		c.Step()
	}
}

// ResetStats zeroes the statistics record and starts a fresh measurement
// window at the current cycle (used after warm-up). Microarchitectural
// state (caches, predictors, prefetch tables) is preserved.
func (c *Core) ResetStats() {
	*c.cs = stats.CoreStats{}
	c.startClock = c.clock
	c.fe.ResetStatsBaseline()
}

// Finalize flushes queue-resident statistics into the record.
func (c *Core) Finalize() {
	c.fe.Finalize()
	c.cs.Cycles = uint64(c.clock - c.startClock)
}
