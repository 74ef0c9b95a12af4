package core

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// churnQueue drives a queue through pushes, pops, demand hoists and
// invalidations; the popped sequence is the behaviour two equal-state
// queues must agree on.
func churnQueue(q *PrefetchQueue, seed uint64, n int) []isa.Line {
	var popped []isa.Line
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l := isa.Line(x >> 40 & 0x7F)
		switch x & 7 {
		case 0, 1, 2, 3:
			q.Push(l)
		case 4:
			if p, ok := q.PopNewest(); ok {
				popped = append(popped, p)
			}
		case 5:
			if p, ok := q.PopOldest(); ok {
				popped = append(popped, p)
			}
		default:
			q.OnDemandFetch(l)
		}
	}
	return popped
}

func TestQueueSnapshotRoundTrip(t *testing.T) {
	a := NewPrefetchQueue(16)
	churnQueue(a, 42, 500)
	snap := a.snapshot()

	b := NewPrefetchQueue(16)
	if err := b.restore(snap); err != nil {
		t.Fatal(err)
	}
	// The whole state comes back: no field is left out on purpose.
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored queue differs from its source")
	}
	want := churnQueue(a, 7, 500)
	if got := churnQueue(b, 7, 500); !equalLines(want, got) {
		t.Fatalf("restored queue diverged: %v vs %v", got, want)
	}

	// Pristine snapshot: a third restore replays the same tail.
	c := NewPrefetchQueue(16)
	if err := c.restore(snap); err != nil {
		t.Fatal(err)
	}
	if again := churnQueue(c, 7, 500); !equalLines(want, again) {
		t.Fatal("snapshot mutated by use")
	}

	if err := NewPrefetchQueue(32).restore(snap); err == nil {
		t.Error("capacity mismatch accepted")
	}
	if err := a.restore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestRecentListSnapshotRoundTrip(t *testing.T) {
	a := NewRecentList(8)
	x := uint64(42)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a.Add(isa.Line(x >> 40 & 0x3F))
	}
	snap := a.snapshot()

	b := NewRecentList(8)
	if err := b.restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored list differs from its source")
	}
	// Contains must agree over the whole line space, and stay in
	// lockstep through further identical churn.
	for pass := 0; pass < 2; pass++ {
		for l := isa.Line(0); l < 64; l++ {
			if a.Contains(l) != b.Contains(l) {
				t.Fatalf("pass %d: restored list disagrees on line %d", pass, l)
			}
		}
		for i := 0; i < 50; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			l := isa.Line(x >> 40 & 0x3F)
			a.Add(l)
			b.Add(l)
		}
	}
	if err := NewRecentList(16).restore(snap); err == nil {
		t.Error("capacity mismatch accepted")
	}
}

func equalLines(a, b []isa.Line) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
