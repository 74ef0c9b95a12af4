// Package core assembles the paper's contribution into a working
// prefetching front-end: prefetch candidates from a prediction engine
// (internal/prefetch) flow through the recent-demand filter and the
// LIFO prefetch queue of Section 4.1, are tag-probed against the L1
// instruction cache, and are installed under either the conventional or
// the L2-bypass policy of Section 7. The front-end also implements the
// oracle miss elimination used by the limits study (Figure 4).
package core

import (
	"repro/internal/isa"
	"repro/internal/linetab"
)

// entryState tracks a prefetch-queue slot's lifecycle. The paper keeps
// issued and invalidated entries around in unused slots as a duplicate
// filter; they are reclaimed before any waiting entry is dropped.
type entryState uint8

const (
	stateEmpty entryState = iota
	stateWaiting
	stateIssued
	stateInvalid
)

type queueEntry struct {
	line  isa.Line
	state entryState
	seq   uint64 // insertion order; higher is newer
}

// PrefetchQueue is the paper's per-core prefetch queue (Section 4.1):
//
//   - finite (32 entries), managed last-in first-out so the freshest
//     predictions issue first;
//   - never contains duplicate prefetches: a push matching a waiting
//     entry hoists that entry to the head instead, and a push matching
//     an issued or invalidated entry is dropped;
//   - demand fetches invalidate matching waiting entries;
//   - issued and invalidated entries linger in otherwise-unused slots to
//     extend the duplicate filter, and are reclaimed first on overflow;
//   - when all slots hold waiting prefetches, the oldest waiting entry
//     is dropped to admit the new one.
//
// The semantics above are naturally expressed as linear scans over the
// slot array (match by line; min/max by seq), but those scans run per
// prefetch candidate on the simulator's hot path. The implementation
// instead keeps a line→slot index (a line appears in at most one
// non-empty slot, because pushes deduplicate) plus two intrusive
// seq-ordered lists — waiting entries and issued/invalidated "marker"
// entries — so every operation the scans performed is O(1) lookups and
// list splices with identical observable behaviour. queue_model_test.go
// checks that equivalence against a scan-based reference model.
type PrefetchQueue struct {
	queueState
}

// queueState is the queue's dynamic state, all of it: its slots, both
// intrusive lists, the line index and the lifetime counters (which feed
// the post-warm-up statistics baselines).
type queueState struct {
	entries []queueEntry
	nextSeq uint64

	idx *linetab.Table[int32] // line → slot, for every non-empty slot

	// Intrusive doubly-linked lists over slots, ordered by seq
	// ascending (head = oldest). A slot is on the waiting list, on the
	// marker list, or empty; the link arrays are shared.
	next, prev   []int32
	wHead, wTail int32 // waiting entries
	mHead, mTail int32 // issued/invalidated markers
	waiting      int
	filled       int // slots in use; slots are claimed in index order

	pushed      uint64
	droppedDup  uint64
	droppedOld  uint64
	invalidated uint64
	hoisted     uint64
}

// NewPrefetchQueue creates a queue with the given capacity (paper: 32).
func NewPrefetchQueue(capacity int) *PrefetchQueue {
	if capacity < 1 {
		panic("core: prefetch queue capacity must be >= 1")
	}
	q := &PrefetchQueue{queueState{
		entries: make([]queueEntry, capacity),
		idx:     linetab.New[int32](4*capacity, 0),
		next:    make([]int32, capacity),
		prev:    make([]int32, capacity),
	}}
	q.wHead, q.wTail, q.mHead, q.mTail = -1, -1, -1, -1
	return q
}

// listAppend links slot s at the tail of the list rooted at head/tail.
func (q *PrefetchQueue) listAppend(head, tail *int32, s int32) {
	q.prev[s] = *tail
	q.next[s] = -1
	if *tail >= 0 {
		q.next[*tail] = s
	} else {
		*head = s
	}
	*tail = s
}

// listRemove unlinks slot s from the list rooted at head/tail.
func (q *PrefetchQueue) listRemove(head, tail *int32, s int32) {
	if p := q.prev[s]; p >= 0 {
		q.next[p] = q.next[s]
	} else {
		*head = q.next[s]
	}
	if n := q.next[s]; n >= 0 {
		q.prev[n] = q.prev[s]
	} else {
		*tail = q.prev[s]
	}
}

// markerInsert links slot s into the marker list, keeping it ordered by
// seq. Newly issued entries usually carry a recent seq (LIFO pops the
// newest), so the insertion point is found from the tail.
func (q *PrefetchQueue) markerInsert(s int32) {
	seq := q.entries[s].seq
	// Fast paths: append (seq above the current tail) and prepend (seq
	// below the current head) cover the common LIFO issue patterns.
	if q.mTail < 0 || q.entries[q.mTail].seq < seq {
		q.listAppend(&q.mHead, &q.mTail, s)
		return
	}
	if q.entries[q.mHead].seq > seq {
		q.prev[s] = -1
		q.next[s] = q.mHead
		q.prev[q.mHead] = s
		q.mHead = s
		return
	}
	after := q.mTail
	for after >= 0 && q.entries[after].seq > seq {
		after = q.prev[after]
	}
	if after < 0 {
		q.prev[s] = -1
		q.next[s] = q.mHead
		if q.mHead >= 0 {
			q.prev[q.mHead] = s
		} else {
			q.mTail = s
		}
		q.mHead = s
		return
	}
	q.prev[s] = after
	q.next[s] = q.next[after]
	if q.next[after] >= 0 {
		q.prev[q.next[after]] = s
	} else {
		q.mTail = s
	}
	q.next[after] = s
}

// Push offers a prefetch candidate. It returns true if the candidate was
// accepted as a new waiting entry (or hoisted), false if it was dropped
// as a duplicate.
func (q *PrefetchQueue) Push(l isa.Line) bool {
	q.pushed++
	if slot, ok := q.idx.Get(l); ok {
		e := &q.entries[slot]
		if e.state == stateWaiting {
			// Hoist: make it the newest so LIFO issue picks it next.
			q.nextSeq++
			e.seq = q.nextSeq
			q.hoisted++
			q.listRemove(&q.wHead, &q.wTail, slot)
			q.listAppend(&q.wHead, &q.wTail, slot)
			return true
		}
		q.droppedDup++
		return false
	}
	// New entry: unclaimed slot, else reclaim the oldest issued/invalid
	// marker, else drop the oldest waiting prefetch.
	var slot int32
	switch {
	case q.filled < len(q.entries):
		slot = int32(q.filled)
		q.filled++
	case q.mHead >= 0:
		slot = q.mHead
		q.listRemove(&q.mHead, &q.mTail, slot)
		q.idx.Delete(q.entries[slot].line)
	default:
		q.droppedOld++
		slot = q.wHead
		q.listRemove(&q.wHead, &q.wTail, slot)
		q.idx.Delete(q.entries[slot].line)
		q.waiting--
	}
	q.nextSeq++
	q.entries[slot] = queueEntry{line: l, state: stateWaiting, seq: q.nextSeq}
	p, _ := q.idx.Ref(l)
	*p = slot
	q.listAppend(&q.wHead, &q.wTail, slot)
	q.waiting++
	return true
}

// PopNewest removes and returns the newest waiting entry (LIFO issue
// order, the paper's policy). The slot transitions to issued, retaining
// the line as a duplicate-filter marker.
func (q *PrefetchQueue) PopNewest() (isa.Line, bool) {
	return q.popSlot(q.wTail)
}

// PopOldest removes and returns the oldest waiting entry (FIFO issue
// order; the A4 ablation).
func (q *PrefetchQueue) PopOldest() (isa.Line, bool) {
	return q.popSlot(q.wHead)
}

func (q *PrefetchQueue) popSlot(slot int32) (isa.Line, bool) {
	if slot < 0 {
		return 0, false
	}
	q.listRemove(&q.wHead, &q.wTail, slot)
	q.waiting--
	q.entries[slot].state = stateIssued
	q.markerInsert(slot)
	return q.entries[slot].line, true
}

// OnDemandFetch invalidates any waiting entry for line l (the demand
// fetch supersedes the prefetch). It returns true if an entry was
// invalidated.
func (q *PrefetchQueue) OnDemandFetch(l isa.Line) bool {
	slot, ok := q.idx.Get(l)
	if !ok || q.entries[slot].state != stateWaiting {
		return false
	}
	q.listRemove(&q.wHead, &q.wTail, slot)
	q.waiting--
	q.entries[slot].state = stateInvalid
	q.invalidated++
	q.markerInsert(slot)
	return true
}

// Waiting returns the number of waiting entries.
func (q *PrefetchQueue) Waiting() int { return q.waiting }

// Capacity returns the queue's slot count.
func (q *PrefetchQueue) Capacity() int { return len(q.entries) }

// DroppedDup returns pushes dropped by the issued/invalidated filter.
func (q *PrefetchQueue) DroppedDup() uint64 { return q.droppedDup }

// DroppedOverflow returns waiting entries displaced by overflow.
func (q *PrefetchQueue) DroppedOverflow() uint64 { return q.droppedOld }

// Invalidated returns entries cancelled by demand fetches.
func (q *PrefetchQueue) Invalidated() uint64 { return q.invalidated }

// Hoisted returns pushes that promoted an existing waiting entry.
func (q *PrefetchQueue) Hoisted() uint64 { return q.hoisted }

// RecentList is the paper's filter over the most recent demand fetches
// (Section 4.1): a small ring of line addresses; prefetch candidates
// matching any of them are dropped before reaching the queue.
//
// Contains runs once per prefetch candidate, so instead of scanning the
// ring it consults a line→occurrence-count index maintained by Add (the
// ring may hold the same line several times).
type RecentList struct {
	recentState
}

// recentState is the list's dynamic state, all of it.
type recentState struct {
	ring   []isa.Line
	used   int
	head   int
	counts *linetab.Table[int32]
}

// NewRecentList creates a list tracking the last n demand fetches
// (paper: 32).
func NewRecentList(n int) *RecentList {
	if n < 1 {
		panic("core: recent list size must be >= 1")
	}
	return &RecentList{recentState{ring: make([]isa.Line, n), counts: linetab.New[int32](4*n, 0)}}
}

// Add records a demand fetch, forgetting the oldest one when full.
func (r *RecentList) Add(l isa.Line) {
	if r.used == len(r.ring) {
		old := r.ring[r.head]
		if c := r.counts.Ptr(old); *c > 1 {
			*c--
		} else {
			r.counts.Delete(old)
		}
	}
	r.ring[r.head] = l
	r.head = (r.head + 1) % len(r.ring)
	if r.used < len(r.ring) {
		r.used++
	}
	c, _ := r.counts.Ref(l)
	*c++
}

// Contains reports whether l is among the tracked recent fetches.
func (r *RecentList) Contains(l isa.Line) bool {
	return r.counts.Ptr(l) != nil
}
