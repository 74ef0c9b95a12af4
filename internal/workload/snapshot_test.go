package workload

import (
	"testing"

	"repro/internal/isa"
)

func blocks(g *Generator, n int) []isa.Block {
	out := make([]isa.Block, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

func equalBlocks(a, b []isa.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PC != b[i].PC || a[i].NumInstrs != b[i].NumInstrs ||
			a[i].CTI != b[i].CTI || a[i].Target != b[i].Target ||
			len(a[i].MemOps) != len(b[i].MemOps) {
			return false
		}
		for j := range a[i].MemOps {
			if a[i].MemOps[j] != b[i].MemOps[j] {
				return false
			}
		}
	}
	return true
}

func TestGeneratorSnapshotRoundTrip(t *testing.T) {
	prog := MustBuildProgram(DB(), 1)
	a := NewGenerator(prog, 42)
	blocks(a, 5000) // advance deep into the walk (stack, rng, tx counters)
	state := a.SnapshotState()

	fresh := func() *Generator {
		g := NewGenerator(prog, 42)
		if err := g.RestoreState(state); err != nil {
			t.Fatal(err)
		}
		return g
	}
	b := fresh()
	want := blocks(a, 5000)
	if got := blocks(b, 5000); !equalBlocks(want, got) {
		t.Fatal("restored generator diverged from the original stream")
	}

	// Pristine snapshot: a third restore replays the same tail even
	// though both earlier instances have moved on.
	c := fresh()
	if again := blocks(c, 5000); !equalBlocks(want, again) {
		t.Fatal("snapshot mutated by use")
	}
}

func TestGeneratorSnapshotRejectsForeignProgram(t *testing.T) {
	a := NewGenerator(MustBuildProgram(DB(), 1), 42)
	blocks(a, 100)
	state := a.SnapshotState()
	other := NewGenerator(MustBuildProgram(DB(), 2), 42) // different ASID
	if err := other.RestoreState(state); err == nil {
		t.Error("cross-program restore accepted")
	}
	if err := a.RestoreState(struct{}{}); err == nil {
		t.Error("junk state accepted")
	}
}
