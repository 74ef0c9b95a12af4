package hybrid

import (
	"fmt"

	"repro/internal/linetab"
)

// compositeSnapshot is a Composite's own state plus one opaque state
// per component.
type compositeSnapshot struct {
	compositeState
	comps []any
}

// set makes s a copy of src that shares no memory with it.
func (s *compositeState) set(src *compositeState) {
	old := *s
	*s = *src
	s.pcTags = append(old.pcTags[:0], src.pcTags...)
	s.pcValid = append(old.pcValid[:0], src.pcValid...)
	if len(old.credit) != len(src.credit) {
		old.credit = make([][]uint8, len(src.credit))
	}
	for i, row := range src.credit {
		old.credit[i] = append(old.credit[i][:0], row...)
	}
	s.credit = old.credit
	s.attr = linetab.Copy(old.attr, src.attr)
	s.shadow = linetab.Copy(old.shadow, src.shadow)
	s.stats = append(old.stats[:0], src.stats...)
	s.ewma = append(old.ewma[:0], src.ewma...)
}

// SnapshotState implements prefetch.Prefetcher: the arbiter's state and,
// recursively, every component's.
func (c *Composite) SnapshotState() any {
	s := &compositeSnapshot{comps: make([]any, len(c.comps))}
	s.set(&c.compositeState)
	for i, p := range c.comps {
		s.comps[i] = p.SnapshotState()
	}
	return s
}

// RestoreState implements prefetch.Prefetcher. The target must be an
// identically-configured composite (same component list, same arbiter
// geometry).
func (c *Composite) RestoreState(state any) error {
	s, ok := state.(*compositeSnapshot)
	if !ok {
		return fmt.Errorf("hybrid: composite restore from %T", state)
	}
	if len(s.pcTags) != len(c.pcTags) || len(s.comps) != len(c.comps) || s.attr.Size() != c.attr.Size() {
		return fmt.Errorf("hybrid: composite restore sizing mismatch: %d slots/%d comps/%d owner slots into %d/%d/%d",
			len(s.pcTags), len(s.comps), s.attr.Size(), len(c.pcTags), len(c.comps), c.attr.Size())
	}
	for i, p := range c.comps {
		if err := p.RestoreState(s.comps[i]); err != nil {
			return fmt.Errorf("hybrid: component %s: %w", c.labels[i], err)
		}
	}
	c.set(&s.compositeState)
	return nil
}
