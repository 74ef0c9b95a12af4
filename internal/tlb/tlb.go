// Package tlb models the translation hierarchy of the simulated machine
// (paper Section 5): 128-entry 2-way set-associative primary instruction
// and data TLBs backed by a 2K-entry unified secondary TLB. A primary
// miss that hits in the secondary costs a small refill; a secondary miss
// costs a software table walk. The timing model charges those penalties;
// this package only tracks hit/miss state.
package tlb

import "repro/internal/isa"

// PageBits is log2 of the page size. SPARC solaris uses 8 KB base pages.
const PageBits = 13

// Page is a virtual page number.
type Page uint64

// PageOf returns the page containing addr.
func PageOf(addr isa.Addr) Page {
	return Page(uint64(addr) >> PageBits)
}

// Config sizes one TLB.
type Config struct {
	Entries int
	Assoc   int
}

// TLB is one translation buffer with LRU replacement. Not safe for
// concurrent use.
//
// Sets live in two flat parallel arrays (page tags and valid bits,
// assoc entries per set, MRU first) rather than per-set slices: the
// lookup runs on every simulated instruction fetch and data access, and
// the flat layout removes a pointer indirection and keeps a set's tags
// in one cache line.
type TLB struct {
	assoc   int
	setMask uint64
	state
}

// state is a TLB's dynamic state, the part a Snapshot copies.
type state struct {
	pages    []Page
	valid    []bool
	accesses uint64
	misses   uint64
}

// New builds a TLB, panicking on invalid sizing.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Assoc <= 0 || cfg.Entries%cfg.Assoc != 0 {
		panic("tlb: entries must be a positive multiple of associativity")
	}
	n := cfg.Entries / cfg.Assoc
	if n&(n-1) != 0 {
		panic("tlb: number of sets must be a power of two")
	}
	return &TLB{
		assoc:   cfg.Assoc,
		setMask: uint64(n - 1),
		state:   state{pages: make([]Page, cfg.Entries), valid: make([]bool, cfg.Entries)},
	}
}

// Access looks up page p, filling on miss, and reports whether it hit.
func (t *TLB) Access(p Page) bool {
	t.accesses++
	base := int(uint64(p)&t.setMask) * t.assoc
	for i := 0; i < t.assoc; i++ {
		if t.pages[base+i] == p && t.valid[base+i] {
			// Promote to MRU.
			copy(t.pages[base+1:base+i+1], t.pages[base:base+i])
			copy(t.valid[base+1:base+i+1], t.valid[base:base+i])
			t.pages[base], t.valid[base] = p, true
			return true
		}
	}
	t.misses++
	// Fill, evicting LRU (last slot).
	copy(t.pages[base+1:base+t.assoc], t.pages[base:base+t.assoc-1])
	copy(t.valid[base+1:base+t.assoc], t.valid[base:base+t.assoc-1])
	t.pages[base], t.valid[base] = p, true
	return false
}

// Fill installs page p at the MRU position without charging an access
// or a miss: prefetch-triggered fills are not demand lookups, so they
// must not perturb the hit/miss statistics. If p is already present it
// is promoted.
func (t *TLB) Fill(p Page) {
	base := int(uint64(p)&t.setMask) * t.assoc
	for i := 0; i < t.assoc; i++ {
		if t.pages[base+i] == p && t.valid[base+i] {
			copy(t.pages[base+1:base+i+1], t.pages[base:base+i])
			copy(t.valid[base+1:base+i+1], t.valid[base:base+i])
			t.pages[base], t.valid[base] = p, true
			return
		}
	}
	copy(t.pages[base+1:base+t.assoc], t.pages[base:base+t.assoc-1])
	copy(t.valid[base+1:base+t.assoc], t.valid[base:base+t.assoc-1])
	t.pages[base], t.valid[base] = p, true
}

// Probe reports whether page p is present without side effects.
func (t *TLB) Probe(p Page) bool {
	base := int(uint64(p)&t.setMask) * t.assoc
	for i := 0; i < t.assoc; i++ {
		if t.pages[base+i] == p && t.valid[base+i] {
			return true
		}
	}
	return false
}

// Accesses returns the number of lookups performed.
func (t *TLB) Accesses() uint64 { return t.accesses }

// Misses returns the number of lookups that missed.
func (t *TLB) Misses() uint64 { return t.misses }

// HierarchyConfig sizes the full translation hierarchy.
type HierarchyConfig struct {
	ITLB    Config
	DTLB    Config
	Unified Config
	// RefillCycles is charged for a primary miss that hits in the
	// secondary; WalkCycles for a secondary miss.
	RefillCycles uint64
	WalkCycles   uint64
}

// DefaultHierarchyConfig returns the paper's configuration with typical
// penalty choices.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		ITLB:         Config{Entries: 128, Assoc: 2},
		DTLB:         Config{Entries: 128, Assoc: 2},
		Unified:      Config{Entries: 2048, Assoc: 4},
		RefillCycles: 10,
		WalkCycles:   120,
	}
}

// Hierarchy is the two-level translation system of one core.
type Hierarchy struct {
	itlb, dtlb, l2 *TLB
	refill, walk   uint64
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		itlb:   New(cfg.ITLB),
		dtlb:   New(cfg.DTLB),
		l2:     New(cfg.Unified),
		refill: cfg.RefillCycles,
		walk:   cfg.WalkCycles,
	}
}

// TranslateI performs an instruction-side translation of addr and returns
// the cycle penalty (0 on a primary hit).
func (h *Hierarchy) TranslateI(addr isa.Addr) uint64 {
	return h.translate(h.itlb, PageOf(addr))
}

// TranslateD performs a data-side translation of addr and returns the
// cycle penalty.
func (h *Hierarchy) TranslateD(addr isa.Addr) uint64 {
	return h.translate(h.dtlb, PageOf(addr))
}

func (h *Hierarchy) translate(primary *TLB, p Page) uint64 {
	if primary.Access(p) {
		return 0
	}
	if h.l2.Access(p) {
		return h.refill
	}
	return h.walk
}

// PrefetchFillI installs the translation for an instruction prefetch
// address ahead of demand (the prefetch-triggered I-TLB fill of the
// co-design axis). With secondaryOnly the translation lands only in the
// unified secondary TLB — a later demand miss still pays the refill but
// skips the page walk; otherwise it also fills the primary I-TLB. It
// reports whether any structure was actually filled (the translation
// was not already resident where the policy wanted it), without
// touching demand hit/miss statistics.
func (h *Hierarchy) PrefetchFillI(addr isa.Addr, secondaryOnly bool) bool {
	p := PageOf(addr)
	filled := false
	if !h.l2.Probe(p) {
		h.l2.Fill(p)
		filled = true
	}
	if !secondaryOnly && !h.itlb.Probe(p) {
		h.itlb.Fill(p)
		filled = true
	}
	return filled
}

// ITLB returns the primary instruction TLB (stats access).
func (h *Hierarchy) ITLB() *TLB { return h.itlb }

// DTLB returns the primary data TLB.
func (h *Hierarchy) DTLB() *TLB { return h.dtlb }

// Unified returns the secondary TLB.
func (h *Hierarchy) Unified() *TLB { return h.l2 }
