package hybrid

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/prefetch"
)

// drive mirrors the prefetch package's contract-test stream: misses,
// discontinuities, useful-prefetch credits, plus unused-prefetch
// evictions, which drain arbitration credit so that proposals reach the
// shadow table; every emitted candidate is collected as the observable
// behaviour.
func drive(p prefetch.Prefetcher, seed uint64, n int) []isa.Line {
	out := []isa.Line{}
	x := seed
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < n; i++ {
		v := next()
		line := isa.Line(v >> 40 & 0x3FF)
		emitted := len(out)
		out = p.OnFetch(prefetch.Event{Line: line, Miss: v&3 == 0, PrefetchHit: v&7 == 1}, out)
		if v&3 == 0 {
			tgt := isa.Line(next() >> 40 & 0x3FF)
			p.OnDiscontinuity(line, tgt, v&1 == 0)
		}
		if v&15 == 2 {
			p.OnPrefetchUseful(line)
		}
		if eo, ok := p.(prefetch.EvictionObserver); ok && v&1 == 1 {
			for _, l := range out[emitted:] {
				eo.OnL1Eviction(l, false)
			}
		}
	}
	return out
}

// TestCompositeSnapshotRoundTrip: a composite's snapshot carries the
// arbitration tables AND every component's state recursively — a
// restored fresh composite equals its source field for field, its
// candidate scratch buffer aside — and the snapshot stays pristine
// across repeated restores.
func TestCompositeSnapshotRoundTrip(t *testing.T) {
	for _, name := range []string{
		"hybrid:discontinuity+streams",
		"hybrid:discontinuity+markov+target",
		"hybrid:discontinuity:table=256+streams:n=2",
	} {
		t.Run(name, func(t *testing.T) {
			a, err := prefetch.New(name)
			if err != nil {
				t.Fatal(err)
			}
			drive(a, 42, 600)
			state := a.SnapshotState()

			fresh := func() prefetch.Prefetcher {
				b := prefetch.MustNew(name)
				if err := b.RestoreState(state); err != nil {
					t.Fatalf("restore: %v", err)
				}
				return b
			}
			b := fresh()
			// Left out on purpose: scratch, a reused candidate buffer
			// that is empty between calls (only its capacity differs).
			a.(*Composite).scratch, b.(*Composite).scratch = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("restored composite differs from its source:\n%+v\n%+v", b, a)
			}
			want := drive(a, 7, 600)
			if got := drive(b, 7, 600); !reflect.DeepEqual(want, got) {
				t.Fatalf("restored composite diverged: %d vs %d candidates", len(want), len(got))
			}
			c := fresh()
			if again := drive(c, 7, 600); !reflect.DeepEqual(want, again) {
				t.Fatal("snapshot mutated by use: second restore diverged")
			}
		})
	}
}

// TestCompositeSnapshotRejectsMismatch: component-list and geometry
// mismatches must be refused.
func TestCompositeSnapshotRejectsMismatch(t *testing.T) {
	a := prefetch.MustNew("hybrid:discontinuity+streams")
	drive(a, 1, 100)
	state := a.SnapshotState()

	for _, other := range []string{
		"hybrid:discontinuity+markov",           // different component
		"hybrid:discontinuity+streams+target",   // different arity
		"hybrid:discontinuity:table=64+streams", // different leaf geometry
	} {
		p := prefetch.MustNew(other)
		if err := p.RestoreState(state); err == nil {
			t.Errorf("%s accepted foreign composite state", other)
		}
	}
	if err := a.RestoreState(struct{}{}); err == nil {
		t.Error("composite accepted junk state")
	}
}

// counters returns the lifetime counters a scheme reports.
func counters(p prefetch.Prefetcher) any {
	switch s := p.(type) {
	case *prefetch.Discontinuity:
		return []any{s.Allocations(), s.Replacements(), s.ProbeHitRate(), s.Suppressed(), s.Occupancy()}
	case *prefetch.MANA:
		return []uint64{s.Commits(), s.RecordDedups()}
	case *prefetch.ProgMap:
		return []uint64{s.Edges(), s.Traversed()}
	case *prefetch.Streams:
		return s.ActiveStreams()
	case prefetch.ComponentReporter:
		return s.ComponentCounters()
	}
	return nil
}

// TestResetMatchesFresh: a scheme Reset after use behaves like a fresh
// one, which is what a fork-warm restore relies on when the measured
// scheme differs from the snapshot's. Behaviour is compared, not
// fields: Reset may leave dead slots that no lookup reads.
func TestResetMatchesFresh(t *testing.T) {
	names := append(prefetch.SchemeNames(), "discontinuity:confidence=true", "hybrid:discontinuity+mana")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			used := prefetch.MustNew(name)
			drive(used, 42, 600)
			used.Reset()
			fresh := prefetch.MustNew(name)
			if !reflect.DeepEqual(counters(used), counters(fresh)) {
				t.Fatalf("counters after Reset %v, fresh %v", counters(used), counters(fresh))
			}
			want := drive(fresh, 7, 600)
			if got := drive(used, 7, 600); !reflect.DeepEqual(want, got) {
				t.Fatalf("reset scheme diverged from a fresh one: %d vs %d candidates", len(got), len(want))
			}
			if !reflect.DeepEqual(counters(used), counters(fresh)) {
				t.Fatalf("counters after the tail %v, fresh %v", counters(used), counters(fresh))
			}
		})
	}
}
