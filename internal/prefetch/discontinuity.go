package prefetch

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/linetab"
)

// DiscontinuityConfig parameterises the paper's discontinuity prefetcher
// (Section 4).
type DiscontinuityConfig struct {
	// TableEntries is the size of the direct-mapped prediction table
	// (paper default: 8192; Figure 10 sweeps 256–8192). Power of two.
	TableEntries int
	// PrefetchAhead is the sequential prefetch-ahead distance N. The
	// paper uses 4 by default and evaluates 2 ("discont (2NL)") as a
	// bandwidth-frugal variant in Figure 9.
	PrefetchAhead int
	// CounterMax is the saturation value of the per-entry eviction
	// counter (3 for the paper's 2-bit counter). With NoCounter set the
	// table always replaces on conflict (an ablation).
	CounterMax uint8
	// NoCounter disables eviction-counter protection (ablation A1).
	NoCounter bool
	// ConfidenceFilter enables the Haga et al. refinement the paper
	// discusses in Section 2.4: each entry carries a confidence counter
	// estimating whether its target is likely absent from the cache —
	// incremented when the target is evicted after demand use,
	// decremented when a prefetch of it proves ineffective. Predictions
	// below ConfidenceThreshold are suppressed, which removes the need
	// to probe the cache tags before issuing.
	ConfidenceFilter bool
	// ConfidenceThreshold is the minimum confidence to emit a prediction
	// (default 2 when the filter is enabled).
	ConfidenceThreshold uint8
	// ConfidenceMax saturates the confidence counter (default 7, 3 bits).
	ConfidenceMax uint8
}

// DefaultDiscontinuityConfig returns the paper's configuration.
func DefaultDiscontinuityConfig() DiscontinuityConfig {
	return DiscontinuityConfig{TableEntries: 8192, PrefetchAhead: 4, CounterMax: 3}
}

// Validate reports whether the configuration is usable.
func (c DiscontinuityConfig) Validate() error {
	if c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0 {
		return fmt.Errorf("prefetch: table entries %d not a positive power of two", c.TableEntries)
	}
	if c.PrefetchAhead < 1 {
		return fmt.Errorf("prefetch: prefetch-ahead %d must be >= 1", c.PrefetchAhead)
	}
	return nil
}

// TableBits estimates the prediction table's storage cost in bits:
// per entry, a trigger tag and a target line address (the paper's
// 64 B lines in a 41-bit physical space leave 35 line bits; the
// direct-mapped index bits come off the trigger tag), the eviction
// counter (wide enough to hold CounterMax — 2 bits for the paper's
// saturation value of 3 — and absent entirely under NoCounter), the
// confidence counter when enabled (sized from ConfidenceMax the same
// way), and a valid bit. This is the x-axis of pareto-front extraction
// over table-size-bits vs. speedup in design-space sweeps, so it must
// track the configured widths, not the paper defaults.
func (c DiscontinuityConfig) TableBits() int {
	const lineAddrBits = 35
	indexBits := 0
	for n := c.TableEntries; n > 1; n >>= 1 {
		indexBits++
	}
	entry := (lineAddrBits - indexBits) + lineAddrBits + 1
	if !c.NoCounter {
		// Mirror NewDiscontinuity's defaulting: an unset CounterMax
		// means the paper's 2-bit counter saturating at 3.
		max := c.CounterMax
		if max == 0 {
			max = 3
		}
		entry += bits.Len8(max)
	}
	if c.ConfidenceFilter {
		max := c.ConfidenceMax
		if max == 0 {
			max = 7
		}
		entry += bits.Len8(max)
	}
	return c.TableEntries * entry
}

// The prediction table is stored as parallel per-slot arrays rather
// than an array of entry structs: OnFetch probes PrefetchAhead+1 random
// slots on every fetch, and keeping the trigger tags densely packed
// (8 bytes per slot instead of a 24-byte struct) means the probe loop
// — which usually misses — touches a third of the memory.

// Discontinuity is the paper's discontinuity prefetcher paired with its
// next-N-line sequential component.
//
// The prediction table is direct mapped with a single target per entry
// (the paper found one target per trigger line suffices) and a 2-bit
// saturating eviction counter:
//
//   - Allocation (on a cross-line discontinuity whose target missed
//     L1-I): if the trigger's slot is empty the entry is installed with
//     a saturated counter. Small forward discontinuities within the
//     prefetch-ahead distance are NOT stored — the sequential component
//     covers them, which is what keeps the table small.
//   - Replacement: a conflicting candidate decrements the resident
//     entry's counter and only replaces it at zero, so useful entries
//     survive stray events.
//   - Prediction: each triggering fetch of line L emits the sequential
//     candidates L+1…L+N and probes the table with L, L+1, …, L+N (the
//     sequential prefetcher "moving ahead of the demand fetch stream").
//     A hit at L+i emits the stored target G and the remainder of the
//     prefetch-ahead distance beyond it (G+1 … G+(N−i)), because waiting
//     for the discontinuity to be verified would be too late to cover an
//     L2 miss.
//   - Usefulness: when a prefetched target line is demand-used, the
//     entry that predicted it gets its counter credited.
type Discontinuity struct {
	cfg  DiscontinuityConfig
	name string
	mask uint64
	discontinuityState
}

// discontinuityState is a Discontinuity prefetcher's dynamic state: the
// prediction table arrays, both credit tables, and the lifetime
// counters (which feed diagnostics and attribution deltas).
type discontinuityState struct {
	triggers []isa.Line
	targets  []isa.Line
	ctr      []uint8
	conf     []uint8
	valid    []bool

	// pending maps issued target lines to the table slot that predicted
	// them, for usefulness credit. A bounded line table, not a Go map:
	// it is written on every probe hit, and at capacity it drops a
	// stale credit deterministically.
	pending *linetab.Table[int32]

	allocations  uint64
	replacements uint64
	probes       uint64
	probeHits    uint64
	suppressed   uint64

	// targetSlots maps target lines to predicting slots for confidence
	// feedback on L1 evictions; bounded like pending, and only
	// allocated when the confidence filter is active.
	targetSlots *linetab.Table[int32]
}

// pendingCap bounds pending; both credit tables get twice their bound
// in slots, so probes stay short up to it.
const pendingCap = 512

// NewDiscontinuity builds the prefetcher, panicking on invalid
// configuration (configurations are program constants).
func NewDiscontinuity(cfg DiscontinuityConfig) *Discontinuity {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.CounterMax == 0 && !cfg.NoCounter {
		cfg.CounterMax = 3
	}
	if cfg.ConfidenceFilter {
		if cfg.ConfidenceThreshold == 0 {
			cfg.ConfidenceThreshold = 2
		}
		if cfg.ConfidenceMax == 0 {
			cfg.ConfidenceMax = 7
		}
	}
	name := fmt.Sprintf("discontinuity-%dnl", cfg.PrefetchAhead)
	if cfg.PrefetchAhead == 4 {
		name = "discontinuity"
	}
	p := &Discontinuity{
		cfg:  cfg,
		name: name,
		mask: uint64(cfg.TableEntries - 1),
		discontinuityState: discontinuityState{
			triggers: make([]isa.Line, cfg.TableEntries),
			targets:  make([]isa.Line, cfg.TableEntries),
			ctr:      make([]uint8, cfg.TableEntries),
			conf:     make([]uint8, cfg.TableEntries),
			valid:    make([]bool, cfg.TableEntries),
			pending:  linetab.New[int32](2*pendingCap, pendingCap),
		},
	}
	if cfg.ConfidenceFilter {
		p.targetSlots = linetab.New[int32](8*pendingCap, 4*pendingCap)
	}
	return p
}

// Name implements Prefetcher.
func (p *Discontinuity) Name() string { return p.name }

// Config returns the active configuration.
func (p *Discontinuity) Config() DiscontinuityConfig { return p.cfg }

// OnFetch implements Prefetcher.
func (p *Discontinuity) OnFetch(ev Event, out []isa.Line) []isa.Line {
	n := p.cfg.PrefetchAhead
	if ev.Miss || ev.PrefetchHit {
		// Sequential component: next-N lines (tagged trigger).
		for i := 1; i <= n; i++ {
			out = append(out, ev.Line+isa.Line(i))
		}
	}
	// Discontinuity component: probe with the demand line and each line
	// of the prefetch-ahead window.
	p.probes += uint64(n + 1)
	for i := 0; i <= n; i++ {
		probe := ev.Line + isa.Line(i)
		h := uint64(probe) & p.mask
		if p.triggers[h] != probe || !p.valid[h] {
			continue
		}
		p.probeHits++
		if p.cfg.ConfidenceFilter && p.conf[h] < p.cfg.ConfidenceThreshold {
			p.suppressed++
			continue
		}
		// A hit at L+i covers the remainder of the prefetch-ahead window
		// past the target: G, G+1 … G+(N−i). At the window edge (i == N)
		// only the target itself is emitted.
		target := p.targets[h]
		rem := n - i
		for j := 0; j <= rem; j++ {
			out = append(out, target+isa.Line(j))
		}
		p.credit(target, int32(h))
	}
	return out
}

// credit remembers which slot predicted target so a later demand use can
// increment its counter. Both tables evict a stale credit when full;
// losing credit is harmless.
func (p *Discontinuity) credit(target isa.Line, slot int32) {
	c, _ := p.pending.Ref(target)
	*c = slot
	if p.cfg.ConfidenceFilter {
		c, _ = p.targetSlots.Ref(target)
		*c = slot
	}
}

// OnL1Eviction implements EvictionObserver when the confidence filter is
// active: evicting a demand-used target raises confidence (the line is
// gone, so the next prefetch of it will be useful); evicting an unused
// prefetched target lowers it (the prefetch was ineffective).
func (p *Discontinuity) OnL1Eviction(line isa.Line, wasUsed bool) {
	if !p.cfg.ConfidenceFilter {
		return
	}
	slot, ok := p.targetSlots.Get(line)
	if !ok {
		return
	}
	if !p.valid[slot] || p.targets[slot] != line {
		p.targetSlots.Delete(line)
		return
	}
	if wasUsed {
		if p.conf[slot] < p.cfg.ConfidenceMax {
			p.conf[slot]++
		}
	} else if p.conf[slot] > 0 {
		p.conf[slot]--
	}
}

// OnDiscontinuity implements Prefetcher: table allocation/replacement.
func (p *Discontinuity) OnDiscontinuity(trigger, target isa.Line, targetMissed bool) {
	if !targetMissed {
		return
	}
	// Small forward discontinuities are covered by the sequential
	// component; storing them would waste table space (Section 2.2).
	if target > trigger && target <= trigger+isa.Line(p.cfg.PrefetchAhead) {
		return
	}
	h := uint64(trigger) & p.mask
	if p.valid[h] && p.triggers[h] == trigger {
		if p.targets[h] == target {
			return // already represented
		}
		// Same trigger, new target: treat like a conflicting candidate.
		if p.cfg.NoCounter || p.ctr[h] == 0 {
			p.targets[h] = target
			p.ctr[h] = p.cfg.CounterMax
			p.conf[h] = p.cfg.ConfidenceThreshold
			p.replacements++
			return
		}
		p.ctr[h]--
		return
	}
	if !p.valid[h] {
		p.setEntry(h, trigger, target)
		p.allocations++
		return
	}
	// Conflict with a different trigger mapping to the same slot.
	if p.cfg.NoCounter || p.ctr[h] == 0 {
		p.setEntry(h, trigger, target)
		p.replacements++
		return
	}
	p.ctr[h]--
}

// setEntry installs a fresh table entry at slot h.
func (p *Discontinuity) setEntry(h uint64, trigger, target isa.Line) {
	p.triggers[h] = trigger
	p.targets[h] = target
	p.ctr[h] = p.cfg.CounterMax
	p.conf[h] = p.cfg.ConfidenceThreshold
	p.valid[h] = true
}

// OnPrefetchUseful implements Prefetcher: credit the predicting entry.
func (p *Discontinuity) OnPrefetchUseful(line isa.Line) {
	slot, ok := p.pending.Get(line)
	if !ok {
		return
	}
	p.pending.Delete(line)
	if p.valid[slot] && p.targets[slot] == line && p.ctr[slot] < p.cfg.CounterMax {
		p.ctr[slot]++
	}
}

// Reset implements Prefetcher.
func (p *Discontinuity) Reset() {
	clear(p.triggers)
	clear(p.targets)
	clear(p.ctr)
	clear(p.conf)
	clear(p.valid)
	p.pending.Reset()
	if p.targetSlots != nil {
		p.targetSlots.Reset()
	}
	p.allocations = 0
	p.replacements = 0
	p.probes = 0
	p.probeHits = 0
	p.suppressed = 0
}

// Occupancy returns the number of valid table entries.
func (p *Discontinuity) Occupancy() int {
	n := 0
	for _, v := range p.valid {
		if v {
			n++
		}
	}
	return n
}

// Allocations returns lifetime table allocations (diagnostics).
func (p *Discontinuity) Allocations() uint64 { return p.allocations }

// Replacements returns lifetime entry replacements.
func (p *Discontinuity) Replacements() uint64 { return p.replacements }

// ProbeHitRate returns the fraction of table probes that hit.
func (p *Discontinuity) ProbeHitRate() float64 {
	if p.probes == 0 {
		return 0
	}
	return float64(p.probeHits) / float64(p.probes)
}

// Suppressed returns predictions withheld by the confidence filter.
func (p *Discontinuity) Suppressed() uint64 { return p.suppressed }

// Lookup exposes the stored target for a trigger line (tests).
func (p *Discontinuity) Lookup(trigger isa.Line) (isa.Line, bool) {
	h := uint64(trigger) & p.mask
	if p.valid[h] && p.triggers[h] == trigger {
		return p.targets[h], true
	}
	return 0, false
}
