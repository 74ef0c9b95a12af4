package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/linetab"
	"repro/internal/memory"
)

// This file gives the front-end and the shared memory system a deep
// snapshot/restore capability — the machine-state half of fork-and-
// diverge batched sweeps. A snapshot is pristine: restoring copies FROM
// it, so the same snapshot can seed any number of machines.

// set makes s a copy of src that shares no memory with it.
func (s *queueState) set(src *queueState) {
	entries, idx, next, prev := s.entries, s.idx, s.next, s.prev
	*s = *src
	s.entries = append(entries[:0], src.entries...)
	s.idx = linetab.Copy(idx, src.idx)
	s.next = append(next[:0], src.next...)
	s.prev = append(prev[:0], src.prev...)
}

func (q *PrefetchQueue) snapshot() *queueState {
	s := new(queueState)
	s.set(&q.queueState)
	return s
}

func (q *PrefetchQueue) restore(s *queueState) error {
	if s == nil || len(s.entries) != len(q.entries) {
		return fmt.Errorf("core: prefetch queue restore sizing mismatch")
	}
	q.set(s)
	return nil
}

// set makes s a copy of src that shares no memory with it.
func (s *recentState) set(src *recentState) {
	ring, counts := s.ring, s.counts
	*s = *src
	s.ring = append(ring[:0], src.ring...)
	s.counts = linetab.Copy(counts, src.counts)
}

func (r *RecentList) snapshot() *recentState {
	s := new(recentState)
	s.set(&r.recentState)
	return s
}

func (r *RecentList) restore(s *recentState) error {
	if s == nil || len(s.ring) != len(r.ring) {
		return fmt.Errorf("core: recent list restore sizing mismatch")
	}
	r.set(s)
	return nil
}

// MemSnapshot is a deep copy of the shared memory system's dynamic
// state: the L2 contents, the off-chip port schedule, the in-flight
// tracker, and the memory system's own state.
type MemSnapshot struct {
	l2       *cache.Snapshot
	port     *memory.PortSnapshot
	inflight *memory.InFlightSnapshot
	memState
}

// Snapshot captures the memory system's current state.
func (m *MemSystem) Snapshot() *MemSnapshot {
	return &MemSnapshot{
		l2:       m.l2.Snapshot(),
		port:     m.port.Snapshot(),
		inflight: m.inflight.Snapshot(),
		memState: m.memState,
	}
}

// Restore overwrites the memory system's state with a copy of the
// snapshot's. The L2 geometry must match; the insert policy may differ
// (policy is behaviour, not state).
func (m *MemSystem) Restore(s *MemSnapshot) error {
	if s == nil {
		return fmt.Errorf("core: restore memory system from nil snapshot")
	}
	if err := m.l2.Restore(s.l2); err != nil {
		return err
	}
	if err := m.port.Restore(s.port); err != nil {
		return err
	}
	if err := m.inflight.Restore(s.inflight); err != nil {
		return err
	}
	m.memState = s.memState
	return nil
}

// FrontEndSnapshot is a deep copy of one front-end's dynamic state. The
// prefetch scheme's state is stored alongside the scheme's reporting
// name: on restore it is applied only when the target runs the same
// scheme — otherwise the target's scheme is Reset, which is what a
// fork-and-diverge measurement wants (the paper's methodology warms the
// machine, not the scheme under test, when the scheme differs from the
// warm-up configuration).
type FrontEndSnapshot struct {
	l1       *cache.Snapshot
	queue    *queueState
	recent   *recentState
	inflight *memory.InFlightSnapshot

	scheme      string
	schemeState any

	frontEndState
}

// set makes s a copy of src that shares no memory with it.
func (s *frontEndState) set(src *frontEndState) {
	compBase := s.compBase
	*s = *src
	s.compBase = append(compBase[:0], src.compBase...)
}

// Snapshot captures the front-end's current state.
func (f *FrontEnd) Snapshot() *FrontEndSnapshot {
	s := &FrontEndSnapshot{
		l1:          f.l1.Snapshot(),
		queue:       f.queue.snapshot(),
		recent:      f.recent.snapshot(),
		inflight:    f.inflight.Snapshot(),
		scheme:      f.pf.Name(),
		schemeState: f.pf.SnapshotState(),
	}
	s.set(&f.frontEndState)
	return s
}

// Restore overwrites the front-end's state with a copy of the
// snapshot's. The L1 geometry and queue/filter capacities must match.
// The issue policies (insertion depth, TLB fill, wrong path, FIFO) may
// differ — they are behaviour, not state.
func (f *FrontEnd) Restore(s *FrontEndSnapshot) error {
	if s == nil {
		return fmt.Errorf("core: restore front-end from nil snapshot")
	}
	if err := f.l1.Restore(s.l1); err != nil {
		return err
	}
	if err := f.queue.restore(s.queue); err != nil {
		return err
	}
	if err := f.recent.restore(s.recent); err != nil {
		return err
	}
	if err := f.inflight.Restore(s.inflight); err != nil {
		return err
	}
	if s.scheme == f.pf.Name() {
		if err := f.pf.RestoreState(s.schemeState); err != nil {
			return err
		}
	} else {
		// Divergent scheme: the measurement machine starts it cold.
		f.pf.Reset()
	}
	f.set(&s.frontEndState)
	return nil
}
