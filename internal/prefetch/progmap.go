package prefetch

import (
	"fmt"

	"repro/internal/isa"
)

// ProgMapConfig parameterises the program-map traversal prefetcher.
type ProgMapConfig struct {
	// Entries sizes the direct-mapped edge table (trigger line -> target
	// line). Power of two. The return table is a quarter of this size.
	Entries int
	// Depth bounds the number of control-flow hops a single trigger may
	// traverse ahead of the fetch stream (1..8).
	Depth int
}

// DefaultProgMapConfig returns the configuration used by the registered
// "progmap" scheme.
func DefaultProgMapConfig() ProgMapConfig {
	return ProgMapConfig{Entries: 4096, Depth: 3}
}

// Validate reports whether the configuration is usable.
func (c ProgMapConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("prefetch: progmap entries %d not a positive power of two", c.Entries)
	}
	if c.Depth < 1 || c.Depth > 8 {
		return fmt.Errorf("prefetch: progmap depth %d out of range 1..8", c.Depth)
	}
	return nil
}

// ProgMap approximates Murthy & Sohi's program-map prefetcher
// (PAPERS.md) at line granularity: discontinuities learned from the
// fetch stream form a call-graph-like edge map, and a triggering fetch
// walks the map several hops ahead — line, its discontinuity target,
// that target's own target — issuing along the traversed path instead
// of stopping at the first transition the way the discontinuity
// prefetcher does.
//
// Call-like edges additionally train a return table: a transition
// trigger -> callee records that after visiting callee, fetch will
// resume at trigger+1. A traversal hop into a known callee entry then
// also prefetches the recorded return line, covering the miss that
// otherwise hits when the callee returns.
type ProgMap struct {
	cfg     ProgMapConfig
	name    string
	mask    uint64
	retMask uint64
	progMapState
}

// progMapState is a ProgMap prefetcher's dynamic state.
type progMapState struct {
	// Edge map: direct-mapped trigger -> target.
	trigs []isa.Line
	tgts  []isa.Line
	valid []bool

	// Return map: callee entry line -> return line.
	retTags  []isa.Line
	retLines []isa.Line
	retValid []bool

	edges     uint64
	traversed uint64
}

// progMapWindow is how many lines past the trigger the traversal scans
// for an outgoing edge at each hop, mirroring the discontinuity
// prefetcher's probe-ahead of the demand stream.
const progMapWindow = 4

// NewProgMap builds the prefetcher, panicking on invalid configuration
// (configurations are program constants; the registry validates first).
func NewProgMap(cfg ProgMapConfig) *ProgMap {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	name := "progmap"
	if cfg != DefaultProgMapConfig() {
		name = fmt.Sprintf("progmap-e%dd%d", cfg.Entries, cfg.Depth)
	}
	retEntries := cfg.Entries / 4
	if retEntries < 256 {
		retEntries = 256
	}
	return &ProgMap{
		cfg:     cfg,
		name:    name,
		mask:    uint64(cfg.Entries - 1),
		retMask: uint64(retEntries - 1),
		progMapState: progMapState{
			trigs:    make([]isa.Line, cfg.Entries),
			tgts:     make([]isa.Line, cfg.Entries),
			valid:    make([]bool, cfg.Entries),
			retTags:  make([]isa.Line, retEntries),
			retLines: make([]isa.Line, retEntries),
			retValid: make([]bool, retEntries),
		},
	}
}

// Name implements Prefetcher.
func (p *ProgMap) Name() string { return p.name }

// Config returns the active configuration.
func (p *ProgMap) Config() ProgMapConfig { return p.cfg }

// OnFetch implements Prefetcher: on a miss or prefetched-line use, walk
// the program map up to Depth hops ahead of the demand line.
func (p *ProgMap) OnFetch(ev Event, out []isa.Line) []isa.Line {
	if !(ev.Miss || ev.PrefetchHit) {
		return out
	}
	cur := ev.Line
	for hop := 0; hop < p.cfg.Depth; hop++ {
		target, ok := p.nextEdge(cur)
		if !ok {
			return out
		}
		p.traversed++
		out = append(out, target, target+1)
		if ret, live := p.returnOf(target); live && ret != target && ret != target+1 {
			out = append(out, ret)
		}
		cur = target
	}
	return out
}

// nextEdge scans the probe window past l for a recorded outgoing edge.
func (p *ProgMap) nextEdge(l isa.Line) (isa.Line, bool) {
	for i := 0; i < progMapWindow; i++ {
		probe := l + isa.Line(i)
		h := uint64(probe) & p.mask
		if p.valid[h] && p.trigs[h] == probe {
			return p.tgts[h], true
		}
	}
	return 0, false
}

// returnOf looks up the recorded post-return line for a callee entry.
func (p *ProgMap) returnOf(callee isa.Line) (isa.Line, bool) {
	h := uint64(callee) & p.retMask
	if p.retValid[h] && p.retTags[h] == callee {
		return p.retLines[h], true
	}
	return 0, false
}

// OnDiscontinuity implements Prefetcher: edge-map training. Every
// missing cross-line transition installs an edge; transitions that look
// like calls (any transition out of straight-line flow can resume at
// trigger+1) also train the return map.
func (p *ProgMap) OnDiscontinuity(trigger, target isa.Line, targetMissed bool) {
	if !targetMissed {
		return
	}
	// Short forward skips are sequential-prefetch territory; mapping
	// them would pollute the edge table (same reasoning as Section 2.2
	// of the paper for the discontinuity table).
	if target > trigger && target <= trigger+progMapWindow {
		return
	}
	h := uint64(trigger) & p.mask
	if !p.valid[h] || p.trigs[h] != trigger || p.tgts[h] != target {
		p.trigs[h], p.tgts[h], p.valid[h] = trigger, target, true
		p.edges++
	}
	rh := uint64(target) & p.retMask
	p.retTags[rh], p.retLines[rh], p.retValid[rh] = target, trigger+1, true
}

// OnPrefetchUseful implements Prefetcher.
func (p *ProgMap) OnPrefetchUseful(isa.Line) {}

// Reset implements Prefetcher.
func (p *ProgMap) Reset() {
	clear(p.trigs)
	clear(p.tgts)
	clear(p.valid)
	clear(p.retTags)
	clear(p.retLines)
	clear(p.retValid)
	p.edges = 0
	p.traversed = 0
}

// Edges returns lifetime edge installs (diagnostics).
func (p *ProgMap) Edges() uint64 { return p.edges }

// Traversed returns lifetime traversal hops taken (diagnostics).
func (p *ProgMap) Traversed() uint64 { return p.traversed }

// Lookup exposes the stored edge target for a trigger line (tests).
func (p *ProgMap) Lookup(trigger isa.Line) (isa.Line, bool) {
	h := uint64(trigger) & p.mask
	if p.valid[h] && p.trigs[h] == trigger {
		return p.tgts[h], true
	}
	return 0, false
}
