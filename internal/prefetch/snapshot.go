package prefetch

import (
	"fmt"
	"maps"

	"repro/internal/linetab"
)

// Each stateful scheme keeps its dynamic fields in one embedded state
// struct. A snapshot is a copy of that struct into a new one, and a
// restore is a sizing check followed by a copy back, so a field added to
// the struct is captured without being named here.

// set makes s a copy of src that shares no memory with it.
func (s *streamsState) set(src *streamsState) {
	streams := s.streams
	*s = *src
	s.streams = append(streams[:0], src.streams...)
}

// SnapshotState implements Prefetcher.
func (p *Streams) SnapshotState() any {
	s := new(streamsState)
	s.set(&p.streamsState)
	return s
}

// RestoreState implements Prefetcher.
func (p *Streams) RestoreState(state any) error {
	s, ok := state.(*streamsState)
	if !ok {
		return fmt.Errorf("prefetch: streams restore from %T", state)
	}
	if len(s.streams) != len(p.streams) {
		return fmt.Errorf("prefetch: streams restore sizing mismatch: %d into %d", len(s.streams), len(p.streams))
	}
	p.set(s)
	return nil
}

// set makes s a copy of src that shares no memory with it.
func (s *targetState) set(src *targetState) {
	entries := s.entries
	*s = *src
	s.entries = append(entries[:0], src.entries...)
}

// SnapshotState implements Prefetcher.
func (p *Target) SnapshotState() any {
	s := new(targetState)
	s.set(&p.targetState)
	return s
}

// RestoreState implements Prefetcher.
func (p *Target) RestoreState(state any) error {
	s, ok := state.(*targetState)
	if !ok {
		return fmt.Errorf("prefetch: target restore from %T", state)
	}
	if len(s.entries) != len(p.entries) {
		return fmt.Errorf("prefetch: target restore sizing mismatch: %d into %d", len(s.entries), len(p.entries))
	}
	p.set(s)
	return nil
}

// set makes s a copy of src that shares no memory with it, successor
// lists included: the live table mutates them in place.
func (s *markovState) set(src *markovState) {
	entries := s.entries
	*s = *src
	if len(entries) != len(src.entries) {
		entries = make([]mentry, len(src.entries))
	}
	for i := range src.entries {
		succ := entries[i].succ
		entries[i] = src.entries[i]
		entries[i].succ = append(succ[:0], src.entries[i].succ...)
	}
	s.entries = entries
}

// SnapshotState implements Prefetcher.
func (p *Markov) SnapshotState() any {
	s := new(markovState)
	s.set(&p.markovState)
	return s
}

// RestoreState implements Prefetcher.
func (p *Markov) RestoreState(state any) error {
	s, ok := state.(*markovState)
	if !ok {
		return fmt.Errorf("prefetch: markov restore from %T", state)
	}
	if len(s.entries) != len(p.entries) {
		return fmt.Errorf("prefetch: markov restore sizing mismatch: %d into %d", len(s.entries), len(p.entries))
	}
	p.set(s)
	return nil
}

// set makes s a copy of src that shares no memory with it.
func (s *discontinuityState) set(src *discontinuityState) {
	old := *s
	*s = *src
	s.triggers = append(old.triggers[:0], src.triggers...)
	s.targets = append(old.targets[:0], src.targets...)
	s.ctr = append(old.ctr[:0], src.ctr...)
	s.conf = append(old.conf[:0], src.conf...)
	s.valid = append(old.valid[:0], src.valid...)
	s.pending = linetab.Copy(old.pending, src.pending)
	s.targetSlots = linetab.Copy(old.targetSlots, src.targetSlots)
}

// SnapshotState implements Prefetcher.
func (p *Discontinuity) SnapshotState() any {
	s := new(discontinuityState)
	s.set(&p.discontinuityState)
	return s
}

// RestoreState implements Prefetcher.
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
	p.set(s)
	return nil
}

// set makes s a copy of src that shares no memory with it.
func (s *manaState) set(src *manaState) {
	old := *s
	*s = *src
	s.trigTags = append(old.trigTags[:0], src.trigTags...)
	s.trigRec = append(old.trigRec[:0], src.trigRec...)
	s.trigValid = append(old.trigValid[:0], src.trigValid...)
	s.records = append(old.records[:0], src.records...)
	s.recIndex = maps.Clone(src.recIndex)
}

// SnapshotState implements Prefetcher.
func (p *MANA) SnapshotState() any {
	s := new(manaState)
	s.set(&p.manaState)
	return s
}

// RestoreState implements Prefetcher.
func (p *MANA) RestoreState(state any) error {
	s, ok := state.(*manaState)
	if !ok {
		return fmt.Errorf("prefetch: mana restore from %T", state)
	}
	if len(s.trigTags) != len(p.trigTags) || len(s.records) != len(p.records) {
		return fmt.Errorf("prefetch: mana restore sizing mismatch: %d/%d into %d/%d",
			len(s.trigTags), len(s.records), len(p.trigTags), len(p.records))
	}
	p.set(s)
	return nil
}

// set makes s a copy of src that shares no memory with it.
func (s *progMapState) set(src *progMapState) {
	old := *s
	*s = *src
	s.trigs = append(old.trigs[:0], src.trigs...)
	s.tgts = append(old.tgts[:0], src.tgts...)
	s.valid = append(old.valid[:0], src.valid...)
	s.retTags = append(old.retTags[:0], src.retTags...)
	s.retLines = append(old.retLines[:0], src.retLines...)
	s.retValid = append(old.retValid[:0], src.retValid...)
}

// SnapshotState implements Prefetcher.
func (p *ProgMap) SnapshotState() any {
	s := new(progMapState)
	s.set(&p.progMapState)
	return s
}

// RestoreState implements Prefetcher.
func (p *ProgMap) RestoreState(state any) error {
	s, ok := state.(*progMapState)
	if !ok {
		return fmt.Errorf("prefetch: progmap restore from %T", state)
	}
	if len(s.trigs) != len(p.trigs) || len(s.retTags) != len(p.retTags) {
		return fmt.Errorf("prefetch: progmap restore sizing mismatch: %d/%d into %d/%d",
			len(s.trigs), len(s.retTags), len(p.trigs), len(p.retTags))
	}
	p.set(s)
	return nil
}
