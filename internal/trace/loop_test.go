package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

func recordedWeb(t *testing.T, n uint64) []byte {
	t.Helper()
	prog := workload.MustBuildProgram(workload.Web(), 0)
	var buf bytes.Buffer
	if err := Record(&buf, "Web", 0, workload.NewGenerator(prog, 5), n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoopReplaysExactly(t *testing.T) {
	data := recordedWeb(t, 1000)
	l, err := NewLoop(data)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "Web" {
		t.Fatalf("name = %q", l.Name())
	}
	// First pass must equal the generator's stream.
	prog := workload.MustBuildProgram(workload.Web(), 0)
	ref := workload.NewGenerator(prog, 5)
	var got, want isa.Block
	for i := 0; i < 1000; i++ {
		l.Next(&got)
		ref.Next(&want)
		if got.PC != want.PC || got.CTI != want.CTI {
			t.Fatalf("block %d mismatch", i)
		}
	}
	if l.Passes() != 0 {
		t.Fatalf("passes = %d before wrap", l.Passes())
	}
}

func TestLoopWrapsAround(t *testing.T) {
	data := recordedWeb(t, 100)
	l, err := NewLoop(data)
	if err != nil {
		t.Fatal(err)
	}
	var first, b isa.Block
	l.Next(&first)
	for i := 0; i < 99; i++ {
		l.Next(&b)
	}
	// Next read wraps to block zero.
	l.Next(&b)
	if b.PC != first.PC {
		t.Fatalf("wrap did not restart: %#x vs %#x", uint64(b.PC), uint64(first.PC))
	}
	if l.Passes() != 1 {
		t.Fatalf("passes = %d", l.Passes())
	}
	// Keep going for several passes.
	for i := 0; i < 350; i++ {
		l.Next(&b)
	}
	if l.Passes() != 4 {
		t.Fatalf("passes = %d after 450 reads of a 100-block trace", l.Passes())
	}
}

func TestLoopRejectsGarbage(t *testing.T) {
	if _, err := NewLoop([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoopRejectsEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriterV2(&buf, "empty", 0, 0)
	w.Close()
	if _, err := NewLoop(buf.Bytes()); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestLoopDrivesBlocksValid(t *testing.T) {
	data := recordedWeb(t, 500)
	l, err := NewLoop(data)
	if err != nil {
		t.Fatal(err)
	}
	var b isa.Block
	for i := 0; i < 2000; i++ {
		l.Next(&b)
		if err := b.Validate(); err != nil {
			t.Fatalf("replayed block %d invalid: %v", i, err)
		}
	}
}
