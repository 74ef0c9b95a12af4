package linetab

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
)

// runOps drives a table and a map reference through the operation
// sequence encoded in ops (two bytes per operation: opcode and key) and
// fails at the first disagreement. A bounded table (limit > 0) may drop
// an entry on insert; the reference then drops the one that vanished,
// after checking that exactly one did. An unbounded table grows past
// half load, as the in-flight tracker does.
func runOps(t *testing.T, ops []byte, limit int) {
	t.Helper()
	tab := New[uint64](2*limit, limit)
	ref := map[isa.Line]uint64{}
	for i := 0; i+1 < len(ops); i += 2 {
		// Few distinct keys, some far apart, so probe chains collide
		// and wrap.
		l := isa.Line(ops[i+1] & 63)
		if ops[i+1]&64 != 0 {
			l <<= 32
		}
		val := uint64(i)
		switch ops[i] % 8 {
		case 0, 1: // Ref and set
			before := tab.Len()
			p, found := tab.Ref(l)
			_, want := ref[l]
			if found != want {
				t.Fatalf("op %d: Ref(%#x) found=%v, reference %v", i/2, l, found, want)
			}
			if !found && *p != 0 {
				t.Fatalf("op %d: Ref(%#x) inserted %d, want the zero value", i/2, l, *p)
			}
			*p = val
			ref[l] = val
			if !found && tab.Len() == before {
				// Bounded insert into a full table: one entry went.
				if limit == 0 || before != limit {
					t.Fatalf("op %d: insert of %#x left Len at %d (limit %d)", i/2, l, before, limit)
				}
				var gone []isa.Line
				for k := range ref {
					if _, ok := tab.Get(k); !ok {
						gone = append(gone, k)
					}
				}
				if len(gone) != 1 || gone[0] == l {
					t.Fatalf("op %d: insert of %#x evicted %#x", i/2, l, gone)
				}
				delete(ref, gone[0])
			}
			if limit == 0 && 2*tab.Len() > tab.Size() {
				tab.Grow()
			}
		case 2: // Ptr and add
			p := tab.Ptr(l)
			if _, ok := ref[l]; ok != (p != nil) {
				t.Fatalf("op %d: Ptr(%#x) present=%v, reference %v", i/2, l, p != nil, ok)
			}
			if p != nil {
				*p += 3
				ref[l] += 3
			}
		case 3, 4:
			_, want := ref[l]
			if got := tab.Delete(l); got != want {
				t.Fatalf("op %d: Delete(%#x) = %v, reference %v", i/2, l, got, want)
			}
			delete(ref, l)
		case 5:
			if tab.Size() < 1<<10 {
				tab.Grow()
			}
		case 6:
			if ops[i+1]%16 == 0 {
				tab.Reset()
				clear(ref)
			}
		case 7:
			keys := tab.Keys(nil)
			want := make([]isa.Line, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			slices.Sort(keys)
			slices.Sort(want)
			if !slices.Equal(keys, want) {
				t.Fatalf("op %d: Keys = %#x, reference %#x", i/2, keys, want)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference %d", i/2, tab.Len(), len(ref))
		}
		if limit > 0 && tab.Len() > limit {
			t.Fatalf("op %d: Len %d above limit %d", i/2, tab.Len(), limit)
		}
		for k, v := range ref {
			if got, ok := tab.Get(k); !ok || got != v {
				t.Fatalf("op %d: Get(%#x) = %d, %v; reference %d", i/2, k, got, ok, v)
			}
		}
	}
}

func TestTableMatchesMap(t *testing.T) {
	for _, limit := range []int{0, 7, 20} {
		for seed := int64(1); seed <= 20; seed++ {
			ops := make([]byte, 4000)
			rand.New(rand.NewSource(seed)).Read(ops)
			runOps(t, ops, limit)
		}
	}
}

func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 7, 0}, uint8(0))
	f.Add([]byte{0, 1, 0, 65, 0, 17, 2, 1, 5, 0, 7, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, limit uint8) {
		runOps(t, ops, int(limit%32))
	})
}

// TestBoundedEvictsNearHome: an insert into a full bounded table evicts
// the live entry at or cyclically after the new key's home slot, and
// nothing else.
func TestBoundedEvictsNearHome(t *testing.T) {
	const limit = 8
	tab := New[int32](2*limit, limit)
	for l := isa.Line(0); l < limit; l++ {
		p, _ := tab.Ref(l)
		*p = int32(l)
	}
	for l := isa.Line(100); l < 400; l++ {
		h := tab.home(l)
		for !tab.live[h] {
			h = (h + 1) & tab.mask
		}
		victim := tab.keys[h]
		before := tab.Keys(nil)
		tab.Ref(l)
		if tab.Len() != limit {
			t.Fatalf("Len = %d after insert into a full table, want %d", tab.Len(), limit)
		}
		for _, k := range before {
			if _, ok := tab.Get(k); ok == (k == victim) {
				t.Fatalf("insert of %d: key %d present=%v, victim %d", l, k, ok, victim)
			}
		}
	}
}

// sharesArrays reports whether a and b share any of their slot arrays.
func sharesArrays[V any](a, b *Table[V]) bool {
	return &a.keys[0] == &b.keys[0] || &a.vals[0] == &b.vals[0] || &a.live[0] == &b.live[0]
}

// TestCloneIsIndependent: Copy into a nil dst clones, and the clone
// does not change when its source does.
func TestCloneIsIndependent(t *testing.T) {
	src := New[uint64](0, 0)
	for l := isa.Line(0); l < 6; l++ {
		p, _ := src.Ref(l * 7)
		*p = uint64(l)
	}
	c := Copy(nil, src)
	if sharesArrays(c, src) {
		t.Fatal("clone shares slot arrays with its source")
	}
	want := Copy(New[uint64](0, 0), c)

	*src.Ptr(7) = 99
	src.Delete(0)
	src.Ref(1000)
	src.Grow()
	src.Reset()
	if !reflect.DeepEqual(c, want) {
		t.Fatal("clone changed when its source did")
	}
	if v, ok := c.Get(7); !ok || v != 1 {
		t.Fatalf("clone Get(7) = %d, %v; want 1", v, ok)
	}
	if Copy(c, nil) != nil {
		t.Fatal("copy of a nil table is not nil")
	}
}

// TestCopyFromAdoptsSize: Copy into a table of another size adopts the
// source's size and keeps the destination's limit.
func TestCopyFromAdoptsSize(t *testing.T) {
	src := New[int32](0, 0)
	for l := isa.Line(0); l < 40; l++ {
		p, _ := src.Ref(l)
		*p = int32(l)
		if 2*src.Len() > src.Size() {
			src.Grow()
		}
	}
	for _, dst := range []*Table[int32]{New[int32](0, 0), New[int32](4*src.Size(), 0)} {
		dst.Ref(5)
		if dst.Size() == src.Size() {
			t.Fatal("test setup: tables have the same size")
		}
		if got := Copy(dst, src); got != dst {
			t.Fatal("Copy into a table did not reuse it")
		}
		if !reflect.DeepEqual(dst, src) {
			t.Fatal("Copy did not reproduce the source table")
		}
		if sharesArrays(dst, src) {
			t.Fatal("copy shares slot arrays with its source")
		}
		// The copy keeps probing like the source.
		for l := isa.Line(30); l < 60; l++ {
			src.Delete(l)
			dst.Delete(l)
		}
		if !slices.Equal(dst.Keys(nil), src.Keys(nil)) {
			t.Fatal("copy diverged from its source")
		}
	}
}
