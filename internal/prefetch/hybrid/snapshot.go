package hybrid

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/linetab"
	"repro/internal/prefetch"
)

// compositeState is the dynamic state of a Composite: the arbitration
// table (tags + per-component credit rows), both owner tables, the
// per-component counter blocks and accuracy EWMAs, and one opaque state
// per component (recursively captured through prefetch.Snapshotter).
type compositeState struct {
	pcTags  []isa.Line
	pcValid []bool
	credit  [][]uint8
	attr    *linetab.Table[uint32]
	shadow  *linetab.Table[uint32]
	stats   []compStats
	ewma    []uint32
	comps   []any
}

// SnapshotState implements prefetch.Snapshotter. Every component must
// itself be a Snapshotter (all registry-constructible schemes are; the
// registry rejects nested hybrids), so the recursion terminates at the
// leaf schemes' explicit state copies.
func (c *Composite) SnapshotState() any {
	s := &compositeState{
		pcTags:  append([]isa.Line(nil), c.pcTags...),
		pcValid: append([]bool(nil), c.pcValid...),
		credit:  make([][]uint8, len(c.credit)),
		attr:    c.attr.Clone(),
		shadow:  c.shadow.Clone(),
		stats:   append([]compStats(nil), c.stats...),
		ewma:    append([]uint32(nil), c.ewma...),
		comps:   make([]any, len(c.comps)),
	}
	for i, row := range c.credit {
		s.credit[i] = append([]uint8(nil), row...)
	}
	for i, p := range c.comps {
		snap, ok := p.(prefetch.Snapshotter)
		if !ok {
			// Unreachable for registry-built composites; fail loudly for
			// hand-assembled ones rather than silently dropping state.
			panic(fmt.Sprintf("hybrid: component %s does not implement prefetch.Snapshotter", c.labels[i]))
		}
		s.comps[i] = snap.SnapshotState()
	}
	return s
}

// RestoreState implements prefetch.Snapshotter. The target must be an
// identically-configured composite (same component list, same arbiter
// geometry).
func (c *Composite) RestoreState(state any) error {
	s, ok := state.(*compositeState)
	if !ok {
		return fmt.Errorf("hybrid: composite restore from %T", state)
	}
	if len(s.pcTags) != len(c.pcTags) || len(s.comps) != len(c.comps) || s.attr.Size() != c.attr.Size() {
		return fmt.Errorf("hybrid: composite restore sizing mismatch: %d slots/%d comps/%d owner slots into %d/%d/%d",
			len(s.pcTags), len(s.comps), s.attr.Size(), len(c.pcTags), len(c.comps), c.attr.Size())
	}
	copy(c.pcTags, s.pcTags)
	copy(c.pcValid, s.pcValid)
	for i := range c.credit {
		copy(c.credit[i], s.credit[i])
	}
	c.attr.CopyFrom(s.attr)
	c.shadow.CopyFrom(s.shadow)
	copy(c.stats, s.stats)
	copy(c.ewma, s.ewma)
	for i, p := range c.comps {
		snap, ok := p.(prefetch.Snapshotter)
		if !ok {
			return fmt.Errorf("hybrid: component %s does not implement prefetch.Snapshotter", c.labels[i])
		}
		if err := snap.RestoreState(s.comps[i]); err != nil {
			return fmt.Errorf("hybrid: component %s: %w", c.labels[i], err)
		}
	}
	return nil
}
