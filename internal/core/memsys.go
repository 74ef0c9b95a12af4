package core

import (
	"repro/internal/cache"
	"repro/internal/codesign"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/stats"
)

// MemSystemConfig describes everything below the L1s: the unified L2 and
// the off-chip link. One MemSystem is shared by all cores of a chip.
type MemSystemConfig struct {
	// L2 geometry (paper default: 2 MB, 4-way, 64 B lines).
	L2 cache.Config
	// L2LatencyCycles is the L2 access latency (paper: 25).
	L2LatencyCycles uint64
	// Port describes DRAM latency and off-chip bandwidth.
	Port memory.PortConfig
	// ModelWritebacks charges off-chip bandwidth for dirty L2 evictions
	// (off by default; the paper's bandwidth figures are read-side).
	ModelWritebacks bool
	// PrefetchInsert selects the recency depth at which prefetch-
	// installed lines enter the L2 (co-design axis; zero value = MRU,
	// the historical behaviour). Demand fills always insert at MRU.
	PrefetchInsert codesign.InsertionPolicy
}

// MemSystem is the shared lower hierarchy: a unified L2 cache, an
// off-chip port, and MSHR-style tracking of lines in flight from memory
// to the L2 so concurrent requesters (other cores, prefetches) coalesce
// onto one transfer. Not safe for concurrent use; the CMP driver
// interleaves cores deterministically.
type MemSystem struct {
	l2        *cache.Cache
	l2Latency uint64
	port      *memory.Port
	inflight  *memory.InFlight
	writeback bool
	// prefDepth is PrefetchInsert resolved against the L2 associativity
	// (0 = MRU insert, the historical path).
	prefDepth int
	memState
}

// memState is the memory system's own dynamic state; the L2, the port
// and the in-flight tracker snapshot their own.
type memState struct {
	writebacks uint64
}

// NewMemSystem builds the shared hierarchy.
func NewMemSystem(cfg MemSystemConfig) *MemSystem {
	return &MemSystem{
		l2:        cache.New(cfg.L2),
		l2Latency: cfg.L2LatencyCycles,
		port:      memory.NewPort(cfg.Port),
		inflight:  memory.NewInFlight(),
		writeback: cfg.ModelWritebacks,
		prefDepth: cfg.PrefetchInsert.DepthFor(cfg.L2.Assoc),
	}
}

// L2 exposes the underlying cache (occupancy diagnostics, tests).
func (m *MemSystem) L2() *cache.Cache { return m.l2 }

// Port exposes the off-chip port (bandwidth diagnostics, tests).
func (m *MemSystem) Port() *memory.Port { return m.port }

// L2Latency returns the configured L2 hit latency.
func (m *MemSystem) L2Latency() uint64 { return m.l2Latency }

// AccessInstr performs a demand instruction-side L2 access for line l at
// cycle now, attributing statistics (and, on an L2 miss, the miss
// category) to cs. It returns the cycle the line is available to the L1.
func (m *MemSystem) AccessInstr(l isa.Line, cat isa.MissCategory, now uint64, cs *stats.CoreStats) uint64 {
	cs.L2I.Accesses++
	if hit, _ := m.l2.Access(l); hit {
		// The line may still be on its way from memory (installed
		// eagerly at request time); wait out the remainder.
		if c, inFl := m.inflight.Lookup(l, now); inFl {
			return c
		}
		return now + m.l2Latency
	}
	cs.L2I.Misses++
	cs.L2IMissBreakdown.Add(cat)
	if c, inFl := m.inflight.Lookup(l, now+m.l2Latency); inFl {
		return c
	}
	complete := m.port.Request(now + m.l2Latency)
	m.inflight.Start(l, complete)
	m.installAt(l, cache.Flags{Inst: true, Used: true}, now)
	return complete
}

// AccessData performs a demand data-side L2 access (an L1-D miss) for
// line l at cycle now. It returns the availability cycle.
func (m *MemSystem) AccessData(l isa.Line, now uint64, cs *stats.CoreStats) uint64 {
	cs.L2D.Accesses++
	if hit, _ := m.l2.Access(l); hit {
		if c, inFl := m.inflight.Lookup(l, now); inFl {
			return c
		}
		return now + m.l2Latency
	}
	cs.L2D.Misses++
	if c, inFl := m.inflight.Lookup(l, now+m.l2Latency); inFl {
		return c
	}
	complete := m.port.Request(now + m.l2Latency)
	m.inflight.Start(l, complete)
	m.installAt(l, cache.Flags{Inst: false, Used: true}, now)
	return complete
}

// WritebackData records a dirty line arriving from an L1-D eviction; the
// L2 copy becomes dirty and will consume off-chip bandwidth when it is
// itself evicted. Lines not present in the L2 write through off-chip.
func (m *MemSystem) WritebackData(l isa.Line, now uint64) {
	if !m.writeback {
		return
	}
	if m.l2.MarkDirty(l) {
		return
	}
	m.writebacks++
	m.port.Request(now)
}

// Writebacks returns off-chip write transfers performed.
func (m *MemSystem) Writebacks() uint64 { return m.writebacks }

// PrefetchInstr performs an instruction prefetch access for line l at
// cycle now. installL2 selects the install policy: conventional
// prefetching installs the fill into the L2 (polluting it); the paper's
// bypass policy does not — the line goes straight to the L1 and only
// enters the L2 later, via InstallProven, if it proves useful.
// It returns the availability cycle and whether the line came from
// off-chip (for bandwidth accounting by callers).
func (m *MemSystem) PrefetchInstr(l isa.Line, now uint64, installL2 bool) (avail uint64, offChip bool) {
	if m.l2.Probe(l) {
		// Present in L2; touch it as a prefetch read (promote, keep
		// flags) and deliver after the L2 latency.
		m.l2.Access(l)
		if c, inFl := m.inflight.Lookup(l, now); inFl {
			return c, false
		}
		return now + m.l2Latency, false
	}
	if c, inFl := m.inflight.Lookup(l, now+m.l2Latency); inFl {
		return c, false
	}
	complete := m.port.Request(now + m.l2Latency)
	m.inflight.Start(l, complete)
	if installL2 {
		m.installAt(l, cache.Flags{Inst: true, Prefetched: true}, now)
	}
	return complete, true
}

// NoteUselessPrefetch records in the L2 that line l's last prefetch
// into an L1 went unused (it was evicted with its prefetch tag still
// set). The usefulness filter consults this to drop re-prefetches.
func (m *MemSystem) NoteUselessPrefetch(l isa.Line) {
	m.l2.SetUselessPrefetch(l, true)
}

// WasUselessPrefetch reports whether line l is marked as a previously
// useless prefetch.
func (m *MemSystem) WasUselessPrefetch(l isa.Line) bool {
	f, ok := m.l2.PeekFlags(l)
	return ok && f.UselessPrefetch
}

// InstallProven installs a proven-useful prefetched line into the L2
// (the bypass policy's eviction-time install). It is a no-op if the
// line is already present.
func (m *MemSystem) InstallProven(l isa.Line) {
	if m.l2.Probe(l) {
		return
	}
	m.install(l, cache.Flags{Inst: true, Used: true})
}

func (m *MemSystem) install(l isa.Line, f cache.Flags) {
	m.installAt(l, f, 0)
}

// installAt fills the L2, charging off-chip bandwidth for a dirty victim
// when write-back modelling is on. Prefetch-tagged fills honour the
// PrefetchInsert depth; demand fills always install at MRU.
func (m *MemSystem) installAt(l isa.Line, f cache.Flags, now uint64) {
	var victim cache.Victim
	var evicted bool
	if m.prefDepth > 0 && f.Prefetched {
		victim, evicted = m.l2.InsertAtDepth(l, f, m.prefDepth)
	} else {
		victim, evicted = m.l2.Insert(l, f)
	}
	if evicted && m.writeback && victim.Flags.Dirty {
		m.writebacks++
		m.port.Request(now)
	}
}

// InstrOccupancy returns the fraction of valid L2 lines holding
// instructions (pollution diagnostics).
func (m *MemSystem) InstrOccupancy() float64 {
	total := m.l2.CountValid()
	if total == 0 {
		return 0
	}
	inst := m.l2.CountValidWhere(func(f cache.Flags) bool { return f.Inst })
	return float64(inst) / float64(total)
}

// Expire lazily drops landed in-flight entries; drivers call it
// periodically to bound memory.
func (m *MemSystem) Expire(now uint64) {
	m.inflight.Expire(now)
}
