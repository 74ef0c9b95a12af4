package workload

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/isa"
)

func blocks(g Source, n int) []isa.Block {
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

// TestReadAheadMatchesGenerator: over several batch boundaries, the
// read-ahead source yields the bare generator's stream, and blocks
// already handed out keep their MemOps while later batches reuse the
// arena.
func TestReadAheadMatchesGenerator(t *testing.T) {
	prog := MustBuildProgram(DB(), 1)
	const n = 4*batchBlocks + 17
	want := blocks(NewGenerator(prog, 42), n)
	got := blocks(ReadAhead(NewGenerator(prog, 42)), n)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("read-ahead stream differs from the generator's")
	}
}

// TestGeneratorSnapshotRoundTrip: a snapshot taken anywhere in a batch
// (offsets 0, 1, 128 and 255 of the fourth, and deep into the walk)
// restores into a fresh source that continues the stream exactly, and
// stays pristine for a second restore.
func TestGeneratorSnapshotRoundTrip(t *testing.T) {
	prog := MustBuildProgram(DB(), 1)
	const tail = 2*batchBlocks + 5
	for _, taken := range []int{0, 3 * batchBlocks, 3*batchBlocks + 1, 3*batchBlocks + 128, 3*batchBlocks + 255, 5000} {
		ref := NewGenerator(prog, 42)
		blocks(ref, taken)
		want := blocks(ref, tail)

		a := ReadAhead(NewGenerator(prog, 42))
		blocks(a, taken)
		state := a.(Snapshotter).SnapshotState()
		if got := blocks(a, tail); !equalBlocks(want, got) {
			t.Fatalf("after %d blocks: the snapshot disturbed its source", taken)
		}
		for i := 0; i < 2; i++ {
			b := ReadAhead(NewGenerator(prog, 42))
			if err := b.(Snapshotter).RestoreState(state); err != nil {
				t.Fatal(err)
			}
			if got := blocks(b, tail); !equalBlocks(want, got) {
				t.Fatalf("after %d blocks: restore %d diverged from the original stream", taken, i)
			}
		}
	}
}

func TestGeneratorSnapshotRejectsForeignProgram(t *testing.T) {
	a := ReadAhead(NewGenerator(MustBuildProgram(DB(), 1), 42))
	blocks(a, 100)
	state := a.(Snapshotter).SnapshotState()
	other := ReadAhead(NewGenerator(MustBuildProgram(DB(), 2), 42)) // different ASID
	if err := other.(Snapshotter).RestoreState(state); err == nil {
		t.Error("cross-program restore accepted")
	}
	if err := a.(Snapshotter).RestoreState(struct{}{}); err == nil {
		t.Error("junk state accepted")
	}
}

// TestAbandonedReadAheadExits: a source dropped mid-stream leaves at
// most its in-flight batch's goroutine, which exits once the batch
// lands.
func TestAbandonedReadAheadExits(t *testing.T) {
	prog := MustBuildProgram(DB(), 1)
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		blocks(ReadAhead(NewGenerator(prog, uint64(i))), i*batchBlocks/2)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the sources", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
