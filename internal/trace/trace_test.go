package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/workload"
)

func sampleBlocks() []isa.Block {
	return []isa.Block{
		{PC: 0x1000, NumInstrs: 4, CTI: isa.CTINone},
		{PC: 0x1010, NumInstrs: 8, CTI: isa.CTICondTakenFwd, Target: 0x1100,
			MemOps: []isa.MemOp{{Addr: 0x20000, Kind: isa.MemLoad}, {Addr: 0x20040, Kind: isa.MemStore}}},
		{PC: 0x1100, NumInstrs: 2, CTI: isa.CTICall, Target: 0x8000},
		{PC: 0x8000, NumInstrs: 16, CTI: isa.CTIReturn, Target: 0x1108,
			MemOps: []isa.MemOp{{Addr: 0x30000, Kind: isa.MemLoad}}},
		{PC: 0x1108, NumInstrs: 3, CTI: isa.CTICondNotTaken},
	}
}

// v1Header returns the header of a legacy IPFTRC01 stream.
func v1Header(name string, asid uint64) []byte {
	out := []byte(magic)
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	return binary.AppendUvarint(out, asid)
}

// v1Bytes encodes blocks as a legacy IPFTRC01 stream: the header, then
// each record delta-based on the previous block's NextPC. Nothing
// writes v1 any more; the tests need it to keep reading it.
func v1Bytes(name string, asid uint64, blocks []isa.Block) []byte {
	buf := bytes.NewBuffer(v1Header(name, asid))
	scratch := make([]byte, binary.MaxVarintLen64)
	var prevNext isa.Addr
	for i := range blocks {
		prevNext = EncodeRecord(buf, scratch, prevNext, &blocks[i])
	}
	return buf.Bytes()
}

// containerOf writes blocks as a container.
func containerOf(t testing.TB, name string, asid uint64, blocks []isa.Block) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, name, asid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if err := w.Write(&blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	in := sampleBlocks()
	for _, tc := range []struct {
		format string
		data   []byte
	}{
		{magicV2, containerOf(t, "unit", 7, in)},
		{magic, v1Bytes("unit", 7, in)},
	} {
		r, err := NewReader(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != "unit" || r.ASID() != 7 || r.Format() != tc.format {
			t.Fatalf("header = %q/%d/%s", r.Name(), r.ASID(), r.Format())
		}
		var b isa.Block
		for i := range in {
			if err := r.Read(&b); err != nil {
				t.Fatalf("%s block %d: %v", tc.format, i, err)
			}
			if !blocksEqual(&b, &in[i]) {
				t.Fatalf("%s block %d mismatch: got %+v want %+v", tc.format, i, b, in[i])
			}
		}
		if err := r.Read(&b); err != io.EOF {
			t.Fatalf("%s: expected EOF, got %v", tc.format, err)
		}
	}
}

func TestGeneratorRoundTrip(t *testing.T) {
	prog := workload.MustBuildProgram(workload.Web(), 3)
	const n = 20000

	var buf bytes.Buffer
	if err := Record(&buf, "Web", 3, workload.NewGenerator(prog, 9), n); err != nil {
		t.Fatal(err)
	}
	sizePerBlock := float64(buf.Len()) / n
	if sizePerBlock > 32 {
		t.Errorf("trace too fat: %.1f bytes/block", sizePerBlock)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ref := workload.NewGenerator(prog, 9)
	var got, want isa.Block
	for i := 0; i < n; i++ {
		ref.Next(&want)
		if err := r.Read(&got); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !blocksEqual(&got, &want) {
			t.Fatalf("block %d mismatch", i)
		}
	}
	if r.Blocks() != n {
		t.Fatalf("reader blocks = %d", r.Blocks())
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOTATRACEFILE")))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("IPF")))
	if err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	raw := v1Bytes("x", 0, sampleBlocks()[1:2])
	// Chop mid-record (keep header + a few bytes).
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var out isa.Block
	if err := r.Read(&out); err == nil {
		t.Fatal("truncated record accepted")
	} else if err == io.EOF {
		t.Fatal("truncation reported as clean EOF")
	}
}

func TestInvalidCTIRejected(t *testing.T) {
	// Hand-craft a record with CTI byte 0xEE.
	buf := bytes.NewBuffer(v1Header("x", 0))
	buf.WriteByte(0x00) // pcDelta 0
	buf.WriteByte(0x04) // numInstrs 4
	buf.WriteByte(0xEE) // bad CTI
	r, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	var b isa.Block
	if err := r.Read(&b); err == nil {
		t.Fatal("invalid CTI accepted")
	}
}

func TestWriterRejectsInvalidBlock(t *testing.T) {
	w, _ := NewWriterV2(io.Discard, "x", 0, 0)
	bad := isa.Block{PC: 0x100, NumInstrs: 0, CTI: isa.CTINone}
	if err := w.Write(&bad); err == nil {
		t.Fatal("invalid block accepted")
	}
}

func TestMemOpsBufferReuse(t *testing.T) {
	blocks := sampleBlocks()
	for _, data := range [][]byte{containerOf(t, "x", 0, blocks), v1Bytes("x", 0, blocks)} {
		r, _ := NewReader(bytes.NewReader(data))
		var b isa.Block
		b.MemOps = make([]isa.MemOp, 0, 64)
		for i := 0; i < len(blocks); i++ {
			if err := r.Read(&b); err != nil {
				t.Fatal(err)
			}
			if cap(b.MemOps) < 64 {
				t.Fatal("reader reallocated the memops buffer")
			}
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	prog := workload.MustBuildProgram(workload.DB(), 0)
	g := workload.NewGenerator(prog, 1)
	var blk isa.Block
	w, err := NewWriterV2(io.Discard, "DB", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&blk)
		w.Write(&blk)
	}
}

func BenchmarkRead(b *testing.B) {
	prog := workload.MustBuildProgram(workload.DB(), 0)
	var buf bytes.Buffer
	Record(&buf, "DB", 0, workload.NewGenerator(prog, 1), 100000)
	raw := buf.Bytes()
	b.ResetTimer()
	var r *Reader
	var blk isa.Block
	for i := 0; i < b.N; i++ {
		if r == nil {
			r, _ = NewReader(bytes.NewReader(raw))
		}
		if err := r.Read(&blk); err != nil {
			r = nil
			i--
		}
	}
}

// loopSource feeds Record an endless repetition of the sample blocks.
// The counter is atomic so tests can watch progress from outside.
type loopSource struct{ i atomic.Int64 }

func (s *loopSource) Next(b *isa.Block) {
	blocks := sampleBlocks()
	*b = blocks[int(s.i.Load())%len(blocks)]
	s.i.Add(1)
}

func TestRecordContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := RecordContext(ctx, &buf, "unit", 0, &loopSource{}, 1<<40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RecordContext = %v, want context.Canceled", err)
	}
	// Cancellation still finalises the container: index + footer
	// present, zero blocks (the poll fired before the first record).
	blocks, err := drainV2(buf.Bytes())
	if err != io.EOF {
		t.Fatalf("interrupted container unreadable: %v", err)
	}
	if len(blocks) != 0 {
		t.Fatalf("interrupted container holds %d blocks, want 0", len(blocks))
	}
}

func TestRecordContextPartialPrefixIsValid(t *testing.T) {
	// Cancel mid-stream: the poll interval means some multiple of
	// ctxPollBlocks blocks get written before the loop notices.
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	src := &loopSource{}
	done := make(chan error, 1)
	go func() { done <- RecordContext(ctx, &buf, "unit", 0, src, 1<<40) }()
	for src.i.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RecordContext = %v, want context.Canceled", err)
	}
	blocks, err := drainV2(buf.Bytes())
	if err != io.EOF {
		t.Fatalf("partial trace corrupt at block %d: %v", len(blocks), err)
	}
	if len(blocks) == 0 {
		t.Fatal("partial trace recorded no blocks")
	}
}
