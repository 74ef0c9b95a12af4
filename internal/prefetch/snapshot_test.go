package prefetch

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// drive feeds p a deterministic fetch stream (misses, discontinuities,
// useful-prefetch credits) and returns every candidate it emitted —
// the observable behaviour two equal-state prefetchers must agree on.
func drive(p Prefetcher, seed uint64, n int) []isa.Line {
	out := []isa.Line{}
	x := seed
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < n; i++ {
		v := next()
		line := isa.Line(v >> 40 & 0x3FF)
		out = p.OnFetch(Event{Line: line, Miss: v&3 == 0, PrefetchHit: v&7 == 1}, out)
		if v&3 == 0 {
			tgt := isa.Line(next() >> 40 & 0x3FF)
			p.OnDiscontinuity(line, tgt, v&1 == 0)
		}
		if v&15 == 2 {
			p.OnPrefetchUseful(line)
		}
	}
	return out
}

// snapshotSchemes is every registry scheme plus representative
// parameterised and composite forms.
func snapshotSchemes(t *testing.T) []string {
	t.Helper()
	// Composite (hybrid:...) forms live in the hybrid package, whose own
	// snapshot test covers them — importing it here would cycle.
	names := SchemeNames()
	names = append(names, "discontinuity:table=128,ahead=2", "discontinuity:confidence=true")
	return names
}

// TestSnapshotterContract is the registry-wide snapshot round trip:
// for every constructible scheme, state captured mid-stream and
// restored into a fresh instance must equal the source field for field
// (no field is left out of a snapshot on purpose), make that instance
// emit exactly the candidates the original goes on to emit — and the
// snapshot must stay pristine (restorable again after the original
// diverged).
func TestSnapshotterContract(t *testing.T) {
	for _, name := range snapshotSchemes(t) {
		t.Run(name, func(t *testing.T) {
			a, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			drive(a, 42, 400)
			state := a.SnapshotState()

			fresh := func() Prefetcher {
				b := MustNew(name)
				if err := b.RestoreState(state); err != nil {
					t.Fatalf("restore: %v", err)
				}
				return b
			}
			b := fresh()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("restored instance differs from its source:\n%+v\n%+v", b, a)
			}
			wantTail := drive(a, 7, 400)
			gotTail := drive(b, 7, 400)
			if !reflect.DeepEqual(wantTail, gotTail) {
				t.Fatalf("restored instance diverged: %d vs %d candidates", len(wantTail), len(gotTail))
			}

			// The snapshot is pristine: a second restore after both
			// instances diverged reproduces the same tail again.
			c := fresh()
			if again := drive(c, 7, 400); !reflect.DeepEqual(wantTail, again) {
				t.Fatalf("snapshot mutated by use: second restore diverged")
			}
		})
	}
}

// TestSnapshotterRejectsForeignState: restoring a scheme's state into a
// different scheme (or differently-sized instance) must error, not
// corrupt silently.
func TestSnapshotterRejectsForeignState(t *testing.T) {
	disc := MustNew("discontinuity")
	drive(disc, 1, 100)
	state := disc.SnapshotState()

	for _, other := range []string{"none", "streams", "mana", "discontinuity:table=64"} {
		p := MustNew(other)
		if err := p.RestoreState(state); err == nil {
			t.Errorf("%s accepted discontinuity state", other)
		}
	}
}

// TestStatelessSnapshotters: stateless schemes snapshot to nil and
// accept only nil back.
func TestStatelessSnapshotters(t *testing.T) {
	for _, name := range []string{"none", "nl-miss", "nl-tagged", "n4l-tagged"} {
		s := MustNew(name)
		if st := s.SnapshotState(); st != nil {
			t.Errorf("%s snapshots non-nil state %v", name, st)
		}
		if err := s.RestoreState(nil); err != nil {
			t.Errorf("%s rejects nil state: %v", name, err)
		}
		if err := s.RestoreState(42); err == nil {
			t.Errorf("%s accepted junk state", name)
		}
	}
}
