package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/linetab"
	"repro/internal/memory"
	"repro/internal/prefetch"
)

// This file gives the front-end and the shared memory system a deep
// snapshot/restore capability — the machine-state half of fork-and-
// diverge batched sweeps. A snapshot is pristine: restoring copies FROM
// it, so the same snapshot can seed any number of machines.

// queueState is a deep copy of a PrefetchQueue: slots, both intrusive
// lists, the line index, and the lifetime counters (which feed the
// post-warm-up statistics baselines).
type queueState struct {
	entries []queueEntry
	nextSeq uint64
	idx     *linetab.Table[int32]
	next    []int32
	prev    []int32
	wHead   int32
	wTail   int32
	mHead   int32
	mTail   int32
	waiting int
	filled  int

	pushed      uint64
	droppedDup  uint64
	droppedOld  uint64
	invalidated uint64
	hoisted     uint64
}

func (q *PrefetchQueue) snapshot() *queueState {
	return &queueState{
		entries:     append([]queueEntry(nil), q.entries...),
		nextSeq:     q.nextSeq,
		idx:         q.idx.Clone(),
		next:        append([]int32(nil), q.next...),
		prev:        append([]int32(nil), q.prev...),
		wHead:       q.wHead,
		wTail:       q.wTail,
		mHead:       q.mHead,
		mTail:       q.mTail,
		waiting:     q.waiting,
		filled:      q.filled,
		pushed:      q.pushed,
		droppedDup:  q.droppedDup,
		droppedOld:  q.droppedOld,
		invalidated: q.invalidated,
		hoisted:     q.hoisted,
	}
}

func (q *PrefetchQueue) restore(s *queueState) error {
	if s == nil || len(s.entries) != len(q.entries) {
		return fmt.Errorf("core: prefetch queue restore sizing mismatch")
	}
	q.idx.CopyFrom(s.idx)
	copy(q.entries, s.entries)
	q.nextSeq = s.nextSeq
	copy(q.next, s.next)
	copy(q.prev, s.prev)
	q.wHead, q.wTail, q.mHead, q.mTail = s.wHead, s.wTail, s.mHead, s.mTail
	q.waiting = s.waiting
	q.filled = s.filled
	q.pushed = s.pushed
	q.droppedDup = s.droppedDup
	q.droppedOld = s.droppedOld
	q.invalidated = s.invalidated
	q.hoisted = s.hoisted
	return nil
}

// recentState is a deep copy of a RecentList.
type recentState struct {
	ring   []isa.Line
	used   int
	head   int
	counts *linetab.Table[int32]
}

func (r *RecentList) snapshot() *recentState {
	return &recentState{
		ring:   append([]isa.Line(nil), r.ring...),
		used:   r.used,
		head:   r.head,
		counts: r.counts.Clone(),
	}
}

func (r *RecentList) restore(s *recentState) error {
	if s == nil || len(s.ring) != len(r.ring) {
		return fmt.Errorf("core: recent list restore sizing mismatch")
	}
	r.counts.CopyFrom(s.counts)
	copy(r.ring, s.ring)
	r.used = s.used
	r.head = s.head
	return nil
}

// MemSnapshot is a deep copy of the shared memory system's dynamic
// state: the L2 contents, the off-chip port schedule, the in-flight
// tracker, and the lifetime writeback counter.
type MemSnapshot struct {
	l2         *cache.Snapshot
	port       *memory.PortSnapshot
	inflight   *memory.InFlightSnapshot
	writebacks uint64
}

// Snapshot captures the memory system's current state.
func (m *MemSystem) Snapshot() *MemSnapshot {
	return &MemSnapshot{
		l2:         m.l2.Snapshot(),
		port:       m.port.Snapshot(),
		inflight:   m.inflight.Snapshot(),
		writebacks: m.writebacks,
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
	m.writebacks = s.writebacks
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

	qBaseOverflow    uint64
	qBaseInvalidated uint64
	qBaseHoisted     uint64
	compBase         []prefetch.ComponentCounters
	expireTick       uint64
}

// Snapshot captures the front-end's current state. It fails when the
// prefetch scheme does not implement prefetch.Snapshotter (all
// registry-built schemes do).
func (f *FrontEnd) Snapshot() (*FrontEndSnapshot, error) {
	snap, ok := f.pf.(prefetch.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: prefetch scheme %s does not support snapshots", f.pf.Name())
	}
	return &FrontEndSnapshot{
		l1:               f.l1.Snapshot(),
		queue:            f.queue.snapshot(),
		recent:           f.recent.snapshot(),
		inflight:         f.inflight.Snapshot(),
		scheme:           f.pf.Name(),
		schemeState:      snap.SnapshotState(),
		qBaseOverflow:    f.qBaseOverflow,
		qBaseInvalidated: f.qBaseInvalidated,
		qBaseHoisted:     f.qBaseHoisted,
		compBase:         append([]prefetch.ComponentCounters(nil), f.compBase...),
		expireTick:       f.expireTick,
	}, nil
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
		snap, ok := f.pf.(prefetch.Snapshotter)
		if !ok {
			return fmt.Errorf("core: prefetch scheme %s does not support snapshots", f.pf.Name())
		}
		if err := snap.RestoreState(s.schemeState); err != nil {
			return err
		}
	} else {
		// Divergent scheme: the measurement machine starts it cold.
		f.pf.Reset()
	}
	f.qBaseOverflow = s.qBaseOverflow
	f.qBaseInvalidated = s.qBaseInvalidated
	f.qBaseHoisted = s.qBaseHoisted
	f.compBase = append(f.compBase[:0], s.compBase...)
	f.expireTick = s.expireTick
	return nil
}
