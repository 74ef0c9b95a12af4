package prefetch

import (
	"fmt"

	"repro/internal/isa"
)

// MANAConfig parameterises the MANA-style spatial-region prefetcher.
type MANAConfig struct {
	// TriggerEntries sizes the direct-mapped trigger table (region base
	// line -> record pointer). Power of two.
	TriggerEntries int
	// RecordEntries sizes the shared footprint-record table the trigger
	// entries point into. This is MANA's metadata compression: distinct
	// triggers whose regions have identical footprints share one record.
	RecordEntries int
	// RegionLines is the spatial-region span tracked past each trigger
	// line (footprint bits cover trigger+1 .. trigger+RegionLines).
	// At most 32 (one uint32 footprint word).
	RegionLines int
}

// DefaultMANAConfig returns the configuration used by the registered
// "mana" scheme: 4K triggers sharing 1K records over 8-line regions.
func DefaultMANAConfig() MANAConfig {
	return MANAConfig{TriggerEntries: 4096, RecordEntries: 1024, RegionLines: 8}
}

// Validate reports whether the configuration is usable.
func (c MANAConfig) Validate() error {
	if c.TriggerEntries <= 0 || c.TriggerEntries&(c.TriggerEntries-1) != 0 {
		return fmt.Errorf("prefetch: mana trigger entries %d not a positive power of two", c.TriggerEntries)
	}
	if c.RecordEntries < 1 {
		return fmt.Errorf("prefetch: mana record entries %d must be >= 1", c.RecordEntries)
	}
	if c.RegionLines < 1 || c.RegionLines > 32 {
		return fmt.Errorf("prefetch: mana region lines %d out of range 1..32", c.RegionLines)
	}
	return nil
}

// MANA approximates the MANA instruction prefetcher (Ansari et al.,
// PAPERS.md) at this simulator's line granularity: the fetch stream is
// carved into spatial regions anchored at the first line fetched after
// leaving the previous region, each region's demand footprint is
// recorded as a bitmap over the next RegionLines lines, and a revisit of
// the anchor replays the footprint as prefetch candidates.
//
// The defining MANA trick is kept: trigger entries do not store
// footprints. They store pointers into a small shared record table, and
// regions with identical footprints — ubiquitous in instruction streams,
// where straight-line runs dominate — share one record. Record slots are
// allocated round-robin; a reused slot simply strands the triggers that
// pointed at it with a stale (but still plausible) footprint, which is
// the same metadata-loss trade the hardware makes.
type MANA struct {
	cfg  MANAConfig
	name string
	mask uint64
	manaState
}

// manaState is a MANA prefetcher's dynamic state.
type manaState struct {
	// Trigger table: direct-mapped region anchor -> record slot.
	trigTags  []isa.Line
	trigRec   []int32
	trigValid []bool

	// Record table and the footprint -> slot dedup index. The index is
	// consulted only when a region closes (discontinuity frequency, not
	// per fetch), so a Go map is acceptable here.
	records  []uint32
	recIndex map[uint32]int32
	recHand  int

	// Region being trained.
	curBase  isa.Line
	curFoot  uint32
	curValid bool

	commits uint64
	dedups  uint64
}

// NewMANA builds the prefetcher, panicking on invalid configuration
// (configurations are program constants; the registry validates first).
func NewMANA(cfg MANAConfig) *MANA {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	name := "mana"
	if cfg != DefaultMANAConfig() {
		name = fmt.Sprintf("mana-t%dr%dw%d", cfg.TriggerEntries, cfg.RecordEntries, cfg.RegionLines)
	}
	return &MANA{
		cfg:  cfg,
		name: name,
		mask: uint64(cfg.TriggerEntries - 1),
		manaState: manaState{
			trigTags:  make([]isa.Line, cfg.TriggerEntries),
			trigRec:   make([]int32, cfg.TriggerEntries),
			trigValid: make([]bool, cfg.TriggerEntries),
			records:   make([]uint32, cfg.RecordEntries),
			recIndex:  make(map[uint32]int32, cfg.RecordEntries),
		},
	}
}

// Name implements Prefetcher.
func (p *MANA) Name() string { return p.name }

// Config returns the active configuration.
func (p *MANA) Config() MANAConfig { return p.cfg }

// OnFetch implements Prefetcher: trains the current region on every
// demand fetch and, when the stream enters a new region on a miss or
// prefetched-line use, replays the anchor's recorded footprint.
func (p *MANA) OnFetch(ev Event, out []isa.Line) []isa.Line {
	l := ev.Line
	if p.curValid && l >= p.curBase && l <= p.curBase+isa.Line(p.cfg.RegionLines) {
		if l != p.curBase {
			p.curFoot |= 1 << (uint(l-p.curBase) - 1)
		}
		return out
	}
	// Region transition: commit the trained footprint, open a region at
	// the new anchor, and predict from the anchor's previous visit.
	p.commit()
	p.curBase, p.curFoot, p.curValid = l, 0, true
	if !(ev.Miss || ev.PrefetchHit) {
		return out
	}
	h := uint64(l) & p.mask
	if !p.trigValid[h] || p.trigTags[h] != l {
		return out
	}
	foot := p.records[p.trigRec[h]]
	for i := 0; i < p.cfg.RegionLines; i++ {
		if foot&(1<<uint(i)) != 0 {
			out = append(out, l+isa.Line(i+1))
		}
	}
	return out
}

// commit stores the trained region: dedup the footprint against the
// record table, allocating a round-robin slot when it is novel, and
// point the anchor's trigger entry at it. Empty footprints (a lone
// fetch before another transition) are not worth a table entry.
func (p *MANA) commit() {
	if !p.curValid || p.curFoot == 0 {
		return
	}
	slot, ok := p.recIndex[p.curFoot]
	if ok {
		p.dedups++
	} else {
		slot = int32(p.recHand)
		p.recHand++
		if p.recHand == len(p.records) {
			p.recHand = 0
		}
		if old := p.records[slot]; old != 0 {
			// The reused slot's footprint loses its canonical mapping;
			// triggers pointing here go stale, as in hardware.
			if s, live := p.recIndex[old]; live && s == slot {
				delete(p.recIndex, old)
			}
		}
		p.records[slot] = p.curFoot
		p.recIndex[p.curFoot] = slot
	}
	h := uint64(p.curBase) & p.mask
	p.trigTags[h], p.trigRec[h], p.trigValid[h] = p.curBase, slot, true
	p.commits++
}

// OnDiscontinuity implements Prefetcher: region transitions are detected
// directly from the fetch stream, so discontinuity reports add nothing.
func (p *MANA) OnDiscontinuity(isa.Line, isa.Line, bool) {}

// OnPrefetchUseful implements Prefetcher.
func (p *MANA) OnPrefetchUseful(isa.Line) {}

// Reset implements Prefetcher.
func (p *MANA) Reset() {
	clear(p.trigTags)
	clear(p.trigRec)
	clear(p.trigValid)
	clear(p.records)
	p.recIndex = make(map[uint32]int32, p.cfg.RecordEntries)
	p.recHand = 0
	p.curBase, p.curFoot, p.curValid = 0, 0, false
	p.commits = 0
	p.dedups = 0
}

// Commits returns lifetime region commits (diagnostics).
func (p *MANA) Commits() uint64 { return p.commits }

// RecordDedups returns commits that reused an existing footprint record
// — the share of metadata the pointer indirection saved (diagnostics).
func (p *MANA) RecordDedups() uint64 { return p.dedups }

// Lookup exposes the recorded footprint for an anchor line (tests).
func (p *MANA) Lookup(anchor isa.Line) (uint32, bool) {
	h := uint64(anchor) & p.mask
	if p.trigValid[h] && p.trigTags[h] == anchor {
		return p.records[p.trigRec[h]], true
	}
	return 0, false
}
