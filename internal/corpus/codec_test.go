package corpus

// Chunk files are encoded by internal/trace; the store keeps them as
// they are, names them by their records' hash and must keep reading
// every file it ever wrote. These tests pin that from the store's side.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

func genBlocks(t *testing.T, p workload.Profile, seed uint64, n int) []isa.Block {
	t.Helper()
	prog := workload.MustBuildProgram(p, 0)
	g := workload.NewGenerator(prog, seed)
	blocks := make([]isa.Block, n)
	for i := range blocks {
		g.Next(&blocks[i])
		blocks[i].MemOps = append([]isa.MemOp(nil), blocks[i].MemOps...)
	}
	return blocks
}

func blocksEqual(a, b []isa.Block) bool {
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

// chunkFile encodes blocks as one chunk file, ignoring cut points.
func chunkFile(t *testing.T, blocks []isa.Block) []byte {
	t.Helper()
	cb := trace.NewChunkBuilder()
	for i := range blocks {
		cb.Add(&blocks[i])
	}
	file, err := cb.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

func deflate(t *testing.T, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(p)
	fw.Close()
	return buf.Bytes()
}

// flateChunkFile builds a codec-0 chunk file (flate over the raw
// records), as stores written before the columnar codec was the only
// one hold.
func flateChunkFile(t *testing.T, raw []byte) []byte {
	t.Helper()
	file := []byte{0}
	file = binary.AppendUvarint(file, uint64(len(raw)))
	file = binary.AppendUvarint(file, uint64(len(raw)))
	return append(file, deflate(t, raw)...)
}

func TestCodecRoundTrips(t *testing.T) {
	blocks := genBlocks(t, workload.Web(), 11, 2000)
	raw := trace.RawRecords(blocks)
	for codec, file := range [][]byte{flateChunkFile(t, raw), chunkFile(t, blocks)} {
		got, rawLen, err := trace.DecodeChunkFile(file)
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if !blocksEqual(blocks, got) || rawLen != len(raw) {
			t.Fatalf("codec %d: round trip changed blocks", codec)
		}
		// The canonical bytes survive the round trip too (the chunk
		// hash depends on this).
		if !bytes.Equal(trace.RawRecords(got), raw) {
			t.Fatalf("codec %d: canonical bytes changed", codec)
		}
	}
}

// TestColumnarCompressesRecordStreams: the one codec must stay
// competitive with flate over the records as they are, the codec it
// replaced.
func TestColumnarCompressesRecordStreams(t *testing.T) {
	blocks := genBlocks(t, workload.DB(), 3, 8000)
	flated := deflate(t, trace.RawRecords(blocks))
	col := chunkFile(t, blocks)
	if float64(len(col)) > 1.05*float64(len(flated)) {
		t.Fatalf("columnar chunk file %d bytes vs flate %d", len(col), len(flated))
	}
}

func TestDecodePayloadRejectsCorruptInput(t *testing.T) {
	blocks := genBlocks(t, workload.Web(), 12, 500)
	raw := trace.RawRecords(blocks)
	for codec, file := range [][]byte{flateChunkFile(t, raw), chunkFile(t, blocks)} {
		// Truncation.
		if _, _, err := trace.DecodeChunkFile(file[:len(file)/2]); err == nil {
			t.Fatalf("codec %d: truncated payload accepted", codec)
		}
		// Wrong transform length (the third header field).
		hdr := 1 + len(binary.AppendUvarint(nil, uint64(len(raw))))
		encLen, n := binary.Uvarint(file[hdr:])
		for _, bad := range []uint64{encLen - 1, encLen + 1} {
			f := append(binary.AppendUvarint(append([]byte(nil), file[:hdr]...), bad), file[hdr+n:]...)
			if _, _, err := trace.DecodeChunkFile(f); err == nil {
				t.Fatalf("codec %d: transform length %d (want %d) accepted", codec, bad, encLen)
			}
		}
	}
	if _, _, err := trace.DecodeChunkFile([]byte{99, 3, 3, 1, 2, 3}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	oversized := binary.AppendUvarint([]byte{0, 1}, 1<<28+1)
	if _, _, err := trace.DecodeChunkFile(oversized); err == nil {
		t.Fatal("oversized transform length accepted")
	}
}

func TestChunkFileFrameRoundTrip(t *testing.T) {
	blocks := genBlocks(t, workload.Web(), 13, 300)
	file := chunkFile(t, blocks)
	if file[0] != 1 {
		t.Fatalf("chunk file codec %d, want columnar (1)", file[0])
	}
	got, rawLen, err := trace.DecodeChunkFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if rawLen != len(trace.RawRecords(blocks)) || !blocksEqual(got, blocks) {
		t.Fatalf("frame round trip = %d blocks, raw %d", len(got), rawLen)
	}
	if _, _, err := trace.DecodeChunkFile(nil); err == nil {
		t.Fatal("empty chunk file accepted")
	}
}
