// Package linetab is the simulator's one hash table keyed by cache line:
// the prefetch queue's line→slot index, the recent-demand filter's
// occurrence counts, the prefetchers' usefulness credits and owners, and
// the in-flight fill tracker all look state up by isa.Line on the
// per-fetch hot path.
//
// A Table is open-addressed with Fibonacci hashing (line addresses are
// near-sequential, so multiplicative mixing is needed to spread them),
// linear probing and backward-shift deletion, so no tombstones build up
// under high churn and a lookup never allocates. Keys, values and live
// flags are three parallel arrays: a packed {key, val, live} slot pads a
// uint64 value from 17 to 24 bytes.
//
// Probe order, eviction victims and growth are deterministic, which the
// simulator's bit-identical goldens and snapshot/restore rely on. Not
// safe for concurrent use.
package linetab

import (
	"math/bits"

	"repro/internal/isa"
)

// Table maps cache lines to values of type V.
type Table[V any] struct {
	keys  []isa.Line
	vals  []V
	live  []bool
	mask  uint64
	shift uint
	n     int
	limit int
}

// New builds a table of at least size slots (rounded up to a power of
// two, minimum 16). With limit > 0 the table holds at most limit
// entries: Ref evicts one to insert into a full table. limit must then
// be below the slot count, so a probe always ends at a free slot; with
// limit 0 the caller bounds the entry count (or calls Grow).
func New[V any](size, limit int) *Table[V] {
	n := 16
	for n < size {
		n <<= 1
	}
	if limit >= n {
		panic("linetab: limit must be below the slot count")
	}
	t := &Table[V]{limit: limit}
	t.alloc(n)
	return t
}

func (t *Table[V]) alloc(size int) {
	t.keys = make([]isa.Line, size)
	t.vals = make([]V, size)
	t.live = make([]bool, size)
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home returns the key's preferred slot.
func (t *Table[V]) home(l isa.Line) uint64 {
	const phi = 0x9E3779B97F4A7C15
	return (uint64(l) * phi) >> t.shift
}

// find returns l's slot, or false when l is absent.
func (t *Table[V]) find(l isa.Line) (uint64, bool) {
	for h := t.home(l); t.live[h]; h = (h + 1) & t.mask {
		if t.keys[h] == l {
			return h, true
		}
	}
	return 0, false
}

// Get returns the value stored for l, if any.
func (t *Table[V]) Get(l isa.Line) (V, bool) {
	if h, ok := t.find(l); ok {
		return t.vals[h], true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to l's value, or nil when l is absent. The
// pointer is valid until the next insert, delete, Grow or Copy.
func (t *Table[V]) Ptr(l isa.Line) *V {
	if h, ok := t.find(l); ok {
		return &t.vals[h]
	}
	return nil
}

// Ref returns a pointer to l's value, inserting l with the zero value
// when absent, and reports whether l was already present. With a limit,
// an insert into a full table first evicts the live entry at or
// cyclically after l's home slot: losing one entry there is what every
// bounded caller can afford, and unlike map iteration the victim is
// deterministic. The pointer is valid until the next insert, delete,
// Grow or Copy.
func (t *Table[V]) Ref(l isa.Line) (*V, bool) {
	h := t.home(l)
	for ; t.live[h]; h = (h + 1) & t.mask {
		if t.keys[h] == l {
			return &t.vals[h], true
		}
	}
	if t.limit > 0 && t.n >= t.limit {
		v := t.home(l)
		for !t.live[v] {
			v = (v + 1) & t.mask
		}
		t.deleteAt(v)
		// Re-probe: the deletion may have shifted l's chain.
		for h = t.home(l); t.live[h]; h = (h + 1) & t.mask {
		}
	}
	var zero V
	t.keys[h], t.vals[h], t.live[h] = l, zero, true
	t.n++
	return &t.vals[h], false
}

// Delete removes l and reports whether it was present.
func (t *Table[V]) Delete(l isa.Line) bool {
	h, ok := t.find(l)
	if ok {
		t.deleteAt(h)
	}
	return ok
}

// deleteAt removes the entry in slot i, compacting the probe chain
// behind it (backward-shift deletion for linear probing).
func (t *Table[V]) deleteAt(i uint64) {
	t.live[i] = false
	t.n--
	for j := (i + 1) & t.mask; t.live[j]; j = (j + 1) & t.mask {
		k := t.home(t.keys[j])
		// Move j's entry into the hole at i unless its home slot lies
		// cyclically inside (i, j]: it is then as close to home as it
		// can get.
		var inInterval bool
		if i < j {
			inInterval = k > i && k <= j
		} else {
			inInterval = k > i || k <= j
		}
		if !inInterval {
			t.keys[i], t.vals[i], t.live[i] = t.keys[j], t.vals[j], true
			t.live[j] = false
			i = j
		}
	}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Size returns the number of slots.
func (t *Table[V]) Size() int { return len(t.keys) }

// Grow doubles the slot count, reinserting the entries in slot order.
func (t *Table[V]) Grow() {
	keys, vals, live := t.keys, t.vals, t.live
	t.alloc(2 * len(keys))
	for i, ok := range live {
		if !ok {
			continue
		}
		h := t.home(keys[i])
		for t.live[h] {
			h = (h + 1) & t.mask
		}
		t.keys[h], t.vals[h], t.live[h] = keys[i], vals[i], true
	}
}

// Keys appends the keys to dst in slot order and returns the result.
func (t *Table[V]) Keys(dst []isa.Line) []isa.Line {
	for i, ok := range t.live {
		if ok {
			dst = append(dst, t.keys[i])
		}
	}
	return dst
}

// Reset empties the table, keeping its size.
func (t *Table[V]) Reset() {
	clear(t.live)
	t.n = 0
}

// Copy makes dst a deep copy of src and returns it: a nil dst gets a
// new table, and a nil src gives nil. The whole slot array is copied,
// not just the entries, so the copy reproduces probe order and eviction
// choices exactly. dst adopts src's size, reusing its arrays when they
// are large enough, but keeps its limit, which is configuration, not
// state.
func Copy[V any](dst, src *Table[V]) *Table[V] {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = &Table[V]{limit: src.limit}
	}
	old := *dst
	*dst = *src
	dst.limit = old.limit
	dst.keys = append(old.keys[:0], src.keys...)
	dst.vals = append(old.vals[:0], src.vals...)
	dst.live = append(old.live[:0], src.live...)
	return dst
}
