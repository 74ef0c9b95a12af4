package prefetch

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/linetab"
)

// Snapshotter is the snapshot capability of a prefetch scheme: a deep
// copy of all dynamic predictor state (SnapshotState) and the inverse
// operation (RestoreState). The returned state is opaque to callers and
// immutable once taken, so a single snapshot can seed any number of
// equivalently-configured schemes — the property fork-and-diverge
// batched sweeps rely on when replaying one shared warm-up into many
// divergent measurement machines.
//
// Every scheme constructible through the registry implements it (a
// contract test enforces this); stateless schemes return nil and accept
// only nil back. RestoreState targets must be configured identically to
// the snapshot source (same table geometry) — restoring across
// configurations is an error, never a silent truncation.
type Snapshotter interface {
	// SnapshotState returns a deep copy of the scheme's dynamic state,
	// or nil for a stateless scheme.
	SnapshotState() any
	// RestoreState overwrites the scheme's dynamic state with a copy of
	// a state captured from an identically-configured scheme.
	RestoreState(state any) error
}

// expectNil is the RestoreState body shared by the stateless schemes.
func expectNil(name string, state any) error {
	if state != nil {
		return fmt.Errorf("prefetch: %s is stateless but restore got %T", name, state)
	}
	return nil
}

// SnapshotState implements Snapshotter (stateless).
func (p *None) SnapshotState() any { return nil }

// RestoreState implements Snapshotter (stateless).
func (p *None) RestoreState(state any) error { return expectNil(p.Name(), state) }

// SnapshotState implements Snapshotter (stateless).
func (p *NextN) SnapshotState() any { return nil }

// RestoreState implements Snapshotter (stateless).
func (p *NextN) RestoreState(state any) error { return expectNil(p.Name(), state) }

// SnapshotState implements Snapshotter (stateless).
func (p *Lookahead) SnapshotState() any { return nil }

// RestoreState implements Snapshotter (stateless).
func (p *Lookahead) RestoreState(state any) error { return expectNil(p.Name(), state) }

// SnapshotState implements Snapshotter (the sequential base is a
// stateless NextN; branch-resolution prefetches carry no history).
func (p *WrongPath) SnapshotState() any { return nil }

// RestoreState implements Snapshotter (stateless).
func (p *WrongPath) RestoreState(state any) error { return expectNil(p.Name(), state) }

// streamsState is the dynamic state of a Streams prefetcher.
type streamsState struct {
	streams []stream
	tick    uint64
}

// SnapshotState implements Snapshotter.
func (p *Streams) SnapshotState() any {
	return &streamsState{streams: append([]stream(nil), p.streams...), tick: p.tick}
}

// RestoreState implements Snapshotter.
func (p *Streams) RestoreState(state any) error {
	s, ok := state.(*streamsState)
	if !ok {
		return fmt.Errorf("prefetch: streams restore from %T", state)
	}
	if len(s.streams) != len(p.streams) {
		return fmt.Errorf("prefetch: streams restore sizing mismatch: %d into %d", len(s.streams), len(p.streams))
	}
	copy(p.streams, s.streams)
	p.tick = s.tick
	return nil
}

// targetState is the dynamic state of a Target prefetcher.
type targetState struct {
	entries []tentry
	last    isa.Line
	started bool
}

// SnapshotState implements Snapshotter.
func (p *Target) SnapshotState() any {
	return &targetState{entries: append([]tentry(nil), p.entries...), last: p.last, started: p.started}
}

// RestoreState implements Snapshotter.
func (p *Target) RestoreState(state any) error {
	s, ok := state.(*targetState)
	if !ok {
		return fmt.Errorf("prefetch: target restore from %T", state)
	}
	if len(s.entries) != len(p.entries) {
		return fmt.Errorf("prefetch: target restore sizing mismatch: %d into %d", len(s.entries), len(p.entries))
	}
	copy(p.entries, s.entries)
	p.last = s.last
	p.started = s.started
	return nil
}

// markovState is the dynamic state of a Markov prefetcher. Successor
// lists are deep-copied: the live table mutates them in place.
type markovState struct {
	entries []mentry
	last    isa.Line
	started bool
}

// SnapshotState implements Snapshotter.
func (p *Markov) SnapshotState() any {
	entries := make([]mentry, len(p.entries))
	for i, e := range p.entries {
		entries[i] = mentry{line: e.line, succ: append([]isa.Line(nil), e.succ...), valid: e.valid}
	}
	return &markovState{entries: entries, last: p.last, started: p.started}
}

// RestoreState implements Snapshotter.
func (p *Markov) RestoreState(state any) error {
	s, ok := state.(*markovState)
	if !ok {
		return fmt.Errorf("prefetch: markov restore from %T", state)
	}
	if len(s.entries) != len(p.entries) {
		return fmt.Errorf("prefetch: markov restore sizing mismatch: %d into %d", len(s.entries), len(p.entries))
	}
	for i := range p.entries {
		e := &p.entries[i]
		src := &s.entries[i]
		e.line = src.line
		e.valid = src.valid
		e.succ = append(e.succ[:0], src.succ...)
	}
	p.last = s.last
	p.started = s.started
	return nil
}

// discontinuityState is the dynamic state of a Discontinuity prefetcher:
// the prediction table arrays, both credit tables, and the lifetime
// counters (which feed diagnostics and attribution deltas).
type discontinuityState struct {
	triggers []isa.Line
	targets  []isa.Line
	ctr      []uint8
	conf     []uint8
	valid    []bool

	pending     *linetab.Table[int32]
	targetSlots *linetab.Table[int32]

	allocations  uint64
	replacements uint64
	probes       uint64
	probeHits    uint64
	suppressed   uint64
}

// SnapshotState implements Snapshotter.
func (p *Discontinuity) SnapshotState() any {
	s := &discontinuityState{
		triggers:     append([]isa.Line(nil), p.triggers...),
		targets:      append([]isa.Line(nil), p.targets...),
		ctr:          append([]uint8(nil), p.ctr...),
		conf:         append([]uint8(nil), p.conf...),
		valid:        append([]bool(nil), p.valid...),
		pending:      p.pending.Clone(),
		allocations:  p.allocations,
		replacements: p.replacements,
		probes:       p.probes,
		probeHits:    p.probeHits,
		suppressed:   p.suppressed,
	}
	if p.targetSlots != nil {
		s.targetSlots = p.targetSlots.Clone()
	}
	return s
}

// RestoreState implements Snapshotter.
func (p *Discontinuity) RestoreState(state any) error {
	s, ok := state.(*discontinuityState)
	if !ok {
		return fmt.Errorf("prefetch: discontinuity restore from %T", state)
	}
	if len(s.triggers) != len(p.triggers) {
		return fmt.Errorf("prefetch: discontinuity restore sizing mismatch: %d into %d", len(s.triggers), len(p.triggers))
	}
	if (s.targetSlots != nil) != (p.targetSlots != nil) {
		return fmt.Errorf("prefetch: discontinuity restore confidence-filter mismatch")
	}
	copy(p.triggers, s.triggers)
	copy(p.targets, s.targets)
	copy(p.ctr, s.ctr)
	copy(p.conf, s.conf)
	copy(p.valid, s.valid)
	p.pending.CopyFrom(s.pending)
	if p.targetSlots != nil {
		p.targetSlots.CopyFrom(s.targetSlots)
	}
	p.allocations = s.allocations
	p.replacements = s.replacements
	p.probes = s.probes
	p.probeHits = s.probeHits
	p.suppressed = s.suppressed
	return nil
}

// manaState is the dynamic state of a MANA prefetcher: the trigger
// table, record table, footprint dedup index (a deep-copied map), the
// round-robin hand, the open training region, and lifetime counters.
type manaState struct {
	trigTags  []isa.Line
	trigRec   []int32
	trigValid []bool
	records   []uint32
	recIndex  map[uint32]int32
	recHand   int
	curBase   isa.Line
	curFoot   uint32
	curValid  bool
	commits   uint64
	dedups    uint64
}

// SnapshotState implements Snapshotter.
func (p *MANA) SnapshotState() any {
	idx := make(map[uint32]int32, len(p.recIndex))
	for k, v := range p.recIndex {
		idx[k] = v
	}
	return &manaState{
		trigTags:  append([]isa.Line(nil), p.trigTags...),
		trigRec:   append([]int32(nil), p.trigRec...),
		trigValid: append([]bool(nil), p.trigValid...),
		records:   append([]uint32(nil), p.records...),
		recIndex:  idx,
		recHand:   p.recHand,
		curBase:   p.curBase,
		curFoot:   p.curFoot,
		curValid:  p.curValid,
		commits:   p.commits,
		dedups:    p.dedups,
	}
}

// RestoreState implements Snapshotter.
func (p *MANA) RestoreState(state any) error {
	s, ok := state.(*manaState)
	if !ok {
		return fmt.Errorf("prefetch: mana restore from %T", state)
	}
	if len(s.trigTags) != len(p.trigTags) || len(s.records) != len(p.records) {
		return fmt.Errorf("prefetch: mana restore sizing mismatch: %d/%d into %d/%d",
			len(s.trigTags), len(s.records), len(p.trigTags), len(p.records))
	}
	copy(p.trigTags, s.trigTags)
	copy(p.trigRec, s.trigRec)
	copy(p.trigValid, s.trigValid)
	copy(p.records, s.records)
	p.recIndex = make(map[uint32]int32, len(s.recIndex))
	for k, v := range s.recIndex {
		p.recIndex[k] = v
	}
	p.recHand = s.recHand
	p.curBase = s.curBase
	p.curFoot = s.curFoot
	p.curValid = s.curValid
	p.commits = s.commits
	p.dedups = s.dedups
	return nil
}

// progMapState is the dynamic state of a ProgMap prefetcher: the edge
// map, the return map, and lifetime counters.
type progMapState struct {
	trigs     []isa.Line
	tgts      []isa.Line
	valid     []bool
	retTags   []isa.Line
	retLines  []isa.Line
	retValid  []bool
	edges     uint64
	traversed uint64
}

// SnapshotState implements Snapshotter.
func (p *ProgMap) SnapshotState() any {
	return &progMapState{
		trigs:     append([]isa.Line(nil), p.trigs...),
		tgts:      append([]isa.Line(nil), p.tgts...),
		valid:     append([]bool(nil), p.valid...),
		retTags:   append([]isa.Line(nil), p.retTags...),
		retLines:  append([]isa.Line(nil), p.retLines...),
		retValid:  append([]bool(nil), p.retValid...),
		edges:     p.edges,
		traversed: p.traversed,
	}
}

// RestoreState implements Snapshotter.
func (p *ProgMap) RestoreState(state any) error {
	s, ok := state.(*progMapState)
	if !ok {
		return fmt.Errorf("prefetch: progmap restore from %T", state)
	}
	if len(s.trigs) != len(p.trigs) || len(s.retTags) != len(p.retTags) {
		return fmt.Errorf("prefetch: progmap restore sizing mismatch: %d/%d into %d/%d",
			len(s.trigs), len(s.retTags), len(p.trigs), len(p.retTags))
	}
	copy(p.trigs, s.trigs)
	copy(p.tgts, s.tgts)
	copy(p.valid, s.valid)
	copy(p.retTags, s.retTags)
	copy(p.retLines, s.retLines)
	copy(p.retValid, s.retValid)
	p.edges = s.edges
	p.traversed = s.traversed
	return nil
}
