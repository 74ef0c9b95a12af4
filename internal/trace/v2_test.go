package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/workload"
)

func blocksEqual(a, b *isa.Block) bool {
	if a.PC != b.PC || a.NumInstrs != b.NumInstrs || a.CTI != b.CTI || a.Target != b.Target ||
		len(a.MemOps) != len(b.MemOps) {
		return false
	}
	for i := range a.MemOps {
		if a.MemOps[i] != b.MemOps[i] {
			return false
		}
	}
	return true
}

// genBlocks returns n blocks of a generator stream.
func genBlocks(p workload.Profile, seed uint64, n int) []isa.Block {
	g := workload.NewGenerator(workload.MustBuildProgram(p, 0), seed)
	out := make([]isa.Block, n)
	for i := range out {
		g.Next(&out[i])
		out[i].MemOps = append([]isa.MemOp(nil), out[i].MemOps...)
	}
	return out
}

// recordV2Bytes captures n generator blocks into a container.
func recordV2Bytes(t testing.TB, name string, seed, n uint64) []byte {
	t.Helper()
	prog := workload.MustBuildProgram(workload.Web(), 3)
	var buf bytes.Buffer
	if err := Record(&buf, name, 3, workload.NewGenerator(prog, seed), n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainV2 reads a trace to the end, returning the blocks and the
// terminal error (io.EOF for a clean end).
func drainV2(raw []byte) ([]isa.Block, error) {
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var out []isa.Block
	for {
		var b isa.Block
		if err := r.Read(&b); err != nil {
			return out, err
		}
		out = append(out, b)
	}
}

func TestV2RoundTripMatchesV1(t *testing.T) {
	const n = 20000
	blocks := genBlocks(workload.Web(), 9, n)
	v1 := v1Bytes("Web", 3, blocks)
	v2 := containerOf(t, "Web", 3, blocks)
	if len(v2) >= len(v1) {
		t.Errorf("container (%d bytes) not smaller than v1 stream (%d bytes)", len(v2), len(v1))
	}

	r1, err := NewReader(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Format() != magicV2 {
		t.Fatalf("v2 format = %q", r2.Format())
	}
	if r2.Name() != "Web" || r2.ASID() != 3 {
		t.Fatalf("v2 header = %q/%d", r2.Name(), r2.ASID())
	}
	var a, b isa.Block
	for i := 0; i < n; i++ {
		if err := r1.Read(&a); err != nil {
			t.Fatalf("v1 block %d: %v", i, err)
		}
		if err := r2.Read(&b); err != nil {
			t.Fatalf("v2 block %d: %v", i, err)
		}
		if !blocksEqual(&a, &b) {
			t.Fatalf("block %d differs: v1 %+v v2 %+v", i, a, b)
		}
	}
	if err := r2.Read(&b); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if r2.Blocks() != n {
		t.Fatalf("v2 reader blocks = %d", r2.Blocks())
	}
	if got := len(r2.Chunks()); got < 10 {
		t.Fatalf("chunks = %d, want content-defined chunks of ~8 KiB", got)
	}
}

// TestWriterFramesAreBuilderChunks pins what corpus ingest relies on:
// the writer's frames are exactly the chunks ChunkBuilder cuts, each
// frame's payload is the chunk file Encode gives, and ReadFrame hands
// that file back verbatim.
func TestWriterFramesAreBuilderChunks(t *testing.T) {
	blocks := genBlocks(workload.DB(), 4, 6000)
	var want [][]byte
	cb := NewChunkBuilder()
	for i := range blocks {
		if cb.Add(&blocks[i]) || i == len(blocks)-1 {
			file, err := cb.Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, file)
			cb.Reset()
		}
	}
	r, err := NewReader(bytes.NewReader(containerOf(t, "DB", 0, blocks)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		got, file, err := r.ReadFrame()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("%d frames, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) || !bytes.Equal(file, want[i]) {
			t.Fatalf("frame %d is not the builder's chunk file", i)
		}
		back, rawLen, err := DecodeChunkFile(file)
		if err != nil || len(back) != len(got) || rawLen != len(RawRecords(got)) {
			t.Fatalf("frame %d: chunk file decodes to %d blocks, raw %d (err %v)", i, len(back), rawLen, err)
		}
	}
	if r.Blocks() != uint64(len(blocks)) {
		t.Fatalf("ReadFrame counted %d blocks, want %d", r.Blocks(), len(blocks))
	}
}

// TestWriteChunkCopiesFile: a chunk file appended with WriteChunk lands
// in the container byte for byte and reads back as its blocks.
func TestWriteChunkCopiesFile(t *testing.T) {
	blocks := genBlocks(workload.Web(), 2, 300)
	cb := NewChunkBuilder()
	for i := range blocks {
		cb.Add(&blocks[i])
	}
	file, err := cb.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewWriterV2(&buf, "Web", 0, 0)
	if err := w.Write(&blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(file, uint64(cb.Records()), cb.Instrs()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), file) {
		t.Fatal("container does not hold the chunk file verbatim")
	}
	got, err := drainV2(buf.Bytes())
	if err != io.EOF || len(got) != 1+len(blocks) {
		t.Fatalf("read %d blocks, err %v", len(got), err)
	}
	for i := range blocks {
		if !blocksEqual(&got[1+i], &blocks[i]) {
			t.Fatalf("block %d differs", i)
		}
	}
}

// TestLegacyFixturesRead: a v1 stream and a container of 0x01 frames,
// both written before chunk-file frames existed, still read as the
// generator streams they recorded.
func TestLegacyFixturesRead(t *testing.T) {
	for _, tc := range []struct {
		file, format string
		p            workload.Profile
		seed         uint64
		chunks       int
	}{
		{"testdata/legacy-v1.trc", magic, workload.Web(), 5, 0},
		{"testdata/legacy-v2-flate-frames.trc", magicV2, workload.DB(), 1, 4},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if r.Format() != tc.format || r.Name() != tc.p.Name {
			t.Fatalf("%s: header %s/%s", tc.file, r.Format(), r.Name())
		}
		want := genBlocks(tc.p, tc.seed, 1000)
		var b isa.Block
		for i := range want {
			if err := r.Read(&b); err != nil {
				t.Fatalf("%s block %d: %v", tc.file, i, err)
			}
			if !blocksEqual(&b, &want[i]) {
				t.Fatalf("%s block %d differs from the generator", tc.file, i)
			}
		}
		if err := r.Read(&b); err != io.EOF {
			t.Fatalf("%s: tail = %v, want EOF", tc.file, err)
		}
		if got := len(r.Chunks()); got != tc.chunks {
			t.Fatalf("%s: %d frames, want %d", tc.file, got, tc.chunks)
		}
	}
}

func TestNewWriterV2RejectsChunkRecords(t *testing.T) {
	if _, err := NewWriterV2(io.Discard, "x", 0, 4096); err == nil {
		t.Fatal("fixed chunk size accepted")
	}
}

// TestV2TruncationTable cuts a container at every byte offset: no proper
// prefix may ever read to a clean io.EOF, and once the header parses,
// the failure must be flagged as truncation or corruption.
func TestV2TruncationTable(t *testing.T) {
	raw := recordV2Bytes(t, "Web", 5, 800)
	if blocks, err := drainV2(raw); err != io.EOF || len(blocks) != 800 {
		t.Fatalf("intact container: %d blocks, err %v", len(blocks), err)
	}
	r, _ := NewReader(bytes.NewReader(raw))
	for r.Read(&isa.Block{}) == nil {
	}
	if len(r.Chunks()) < 2 {
		t.Fatalf("%d frames; the table wants cuts between frames too", len(r.Chunks()))
	}
	for cut := 1; cut < len(raw); cut++ {
		prefix := raw[:cut]
		blocks, err := drainV2(prefix)
		if err == nil || err == io.EOF {
			t.Fatalf("cut %d/%d: truncated container read cleanly (%d blocks)", cut, len(raw), len(blocks))
		}
		if cut > len(magicV2)+8 { // header parsed; classify the failure
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d/%d: error %v is neither truncation nor corruption", cut, len(raw), err)
			}
		}
	}
}

// TestV1TruncationTable cuts a flat v1 stream at every byte offset: a
// cut at a record boundary is indistinguishable from a shorter capture
// (clean io.EOF with the full records so far), while any mid-record cut
// must surface io.ErrUnexpectedEOF.
func TestV1TruncationTable(t *testing.T) {
	in := sampleBlocks()
	headerLen := len(v1Header("unit", 0))
	boundaries := map[int]int{headerLen: 0} // offset -> records before it
	for i := range in {
		boundaries[len(v1Bytes("unit", 0, in[:i+1]))] = i + 1
	}
	raw := v1Bytes("unit", 0, in)
	for cut := headerLen; cut <= len(raw); cut++ {
		r, err := NewReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var b isa.Block
		n := 0
		var readErr error
		for {
			if readErr = r.Read(&b); readErr != nil {
				break
			}
			n++
		}
		if want, ok := boundaries[cut]; ok {
			if readErr != io.EOF || n != want {
				t.Fatalf("cut %d at boundary: got %d blocks, err %v (want %d, io.EOF)", cut, n, readErr, want)
			}
		} else if !errors.Is(readErr, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d mid-record: err = %v, want io.ErrUnexpectedEOF", cut, readErr)
		}
	}
}

// TestCorruptChunkNamesChunk flips a byte inside one frame's chunk
// file: the reader must reject the container with a diagnostic naming
// that chunk.
func TestCorruptChunkNamesChunk(t *testing.T) {
	raw := recordV2Bytes(t, "Web", 7, 3000)
	r, _ := NewReader(bytes.NewReader(raw))
	for r.Read(&isa.Block{}) == nil {
	}
	chunks := r.Chunks()
	if len(chunks) < 3 {
		t.Fatalf("chunks = %d, want at least 3", len(chunks))
	}
	bad := append([]byte(nil), raw...)
	bad[chunks[2].Offset-1] ^= 0xff // last payload byte of chunk 1

	_, err := drainV2(bad)
	if err == nil || err == io.EOF {
		t.Fatal("reader accepted corrupted chunk")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "chunk 1") {
		t.Fatalf("error %q does not name chunk 1", err)
	}
}

func TestCorruptIndexEntryRejected(t *testing.T) {
	raw := recordV2Bytes(t, "Web", 7, 48)
	// Flip a byte inside the index region (between the last chunk's end
	// and the footer): either the index CRC or the entry cross-check
	// must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-footerSize-2] ^= 0x01
	if _, err := drainV2(bad); err == nil || err == io.EOF {
		t.Fatal("reader accepted corrupted index")
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	raw := recordV2Bytes(t, "Web", 7, 20)
	bad := append(append([]byte(nil), raw...), 0x00)
	if _, err := drainV2(bad); err == nil || err == io.EOF {
		t.Fatal("reader accepted trailing garbage")
	}
}

func TestEmptyV2Container(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, "empty", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, err := drainV2(buf.Bytes())
	if err != io.EOF || len(blocks) != 0 {
		t.Fatalf("empty container: %d blocks, err %v", len(blocks), err)
	}
}

func TestRecordV2ContextCancellation(t *testing.T) {
	// A mid-stream cancel leaves a finalised IPFTRC02 container whose
	// blocks are exactly the first k*ctxPollBlocks blocks of the source.
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
	if got := string(buf.Bytes()[:len(magicV2)]); got != magicV2 {
		t.Fatalf("interrupted container magic = %q, want %q", got, magicV2)
	}
	blocks, err := drainV2(buf.Bytes())
	if err != io.EOF {
		t.Fatalf("interrupted container unreadable at block %d: %v", len(blocks), err)
	}
	if len(blocks) == 0 || len(blocks)%ctxPollBlocks != 0 {
		t.Fatalf("interrupted container holds %d blocks, want a positive multiple of %d", len(blocks), ctxPollBlocks)
	}
	want := sampleBlocks()
	for i := range blocks {
		if !blocksEqual(&blocks[i], &want[i%len(want)]) {
			t.Fatalf("block %d = %+v, want %+v", i, blocks[i], want[i%len(want)])
		}
	}
}

func TestWriterV2RejectsWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, "x", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	b := sampleBlocks()[0]
	if err := w.Write(&b); err == nil {
		t.Fatal("write after Close accepted")
	}
	if err := w.WriteChunk([]byte{1}, 1, 1); err == nil {
		t.Fatal("WriteChunk after Close accepted")
	}
}

func BenchmarkDecodeChunkFile(b *testing.B) {
	blocks := genBlocks(workload.DB(), 1, 2000)
	cb := NewChunkBuilder()
	for i := range blocks {
		cb.Add(&blocks[i])
	}
	file, err := cb.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeChunkFile(file); err != nil {
			b.Fatal(err)
		}
	}
}
