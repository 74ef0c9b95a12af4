package tlb

import "fmt"

// Snapshot is a deep copy of one TLB's dynamic state.
type Snapshot struct {
	assoc int
	state
}

// set makes s a copy of src that shares no memory with it.
func (s *state) set(src *state) {
	pages, valid := s.pages, s.valid
	*s = *src
	s.pages = append(pages[:0], src.pages...)
	s.valid = append(valid[:0], src.valid...)
}

// Snapshot captures the TLB's current state.
func (t *TLB) Snapshot() *Snapshot {
	s := &Snapshot{assoc: t.assoc}
	s.set(&t.state)
	return s
}

// Restore overwrites the TLB's state with a copy of the snapshot's. The
// target must have the same geometry.
func (t *TLB) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("tlb: restore from nil snapshot")
	}
	if len(s.pages) != len(t.pages) || s.assoc != t.assoc {
		return fmt.Errorf("tlb: restore geometry mismatch: %d entries/%d-way into %d entries/%d-way",
			len(s.pages), s.assoc, len(t.pages), t.assoc)
	}
	t.set(&s.state)
	return nil
}

// HierarchySnapshot is a deep copy of a two-level translation hierarchy.
type HierarchySnapshot struct {
	itlb, dtlb, l2 *Snapshot
}

// Snapshot captures all three TLBs.
func (h *Hierarchy) Snapshot() *HierarchySnapshot {
	return &HierarchySnapshot{
		itlb: h.itlb.Snapshot(),
		dtlb: h.dtlb.Snapshot(),
		l2:   h.l2.Snapshot(),
	}
}

// Restore overwrites all three TLBs from the snapshot.
func (h *Hierarchy) Restore(s *HierarchySnapshot) error {
	if s == nil {
		return fmt.Errorf("tlb: restore hierarchy from nil snapshot")
	}
	if err := h.itlb.Restore(s.itlb); err != nil {
		return err
	}
	if err := h.dtlb.Restore(s.dtlb); err != nil {
		return err
	}
	return h.l2.Restore(s.l2)
}
