package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"testing"

	"repro/internal/isa"
)

// hugeMemopChunkFile is a 418-byte chunk file whose 412-byte payload
// inflates to a columnar transform declaring 65 536 blocks with 65 536
// memops each: 2^32 memops, from a few hundred kilobytes of plaintext.
func hugeMemopChunkFile(t *testing.T) []byte {
	t.Helper()
	const n = 1 << 16
	plain := binary.AppendUvarint(nil, n)
	plain = append(plain, bytes.Repeat([]byte{0}, n)...)                 // pc deltas
	plain = append(plain, bytes.Repeat([]byte{1}, n)...)                 // instruction counts
	plain = append(plain, bytes.Repeat([]byte{byte(isa.CTINone)}, n)...) // no targets follow
	plain = append(plain, bytes.Repeat(binary.AppendUvarint(nil, n), n)...)
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestCompression)
	fw.Write(plain)
	fw.Close()
	file := chunkFileBytes(codecColumnar, 4096, len(plain), comp.Bytes())
	if len(file) != 418 || comp.Len() != 412 {
		t.Fatalf("crafted chunk file is %d bytes (payload %d), want 418 (412)", len(file), comp.Len())
	}
	return file
}

// TestColumnarDecodeBoundsAllocation: a crafted chunk file must be
// rejected with an error, not answered with a 32 GiB allocation that
// kills the process.
func TestColumnarDecodeBoundsAllocation(t *testing.T) {
	if _, _, err := DecodeChunkFile(hugeMemopChunkFile(t)); err == nil {
		t.Fatal("chunk file claiming 2^32 memops accepted")
	}
	// The record count is bounded by the plaintext too: 4 bytes each.
	plain := binary.AppendUvarint(nil, 1<<20)
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestCompression)
	fw.Write(append(plain, make([]byte, 1<<20)...))
	fw.Close()
	file := chunkFileBytes(codecColumnar, 1, len(plain)+1<<20, comp.Bytes())
	if _, _, err := DecodeChunkFile(file); err == nil {
		t.Fatal("chunk file claiming more records than its bytes can hold accepted")
	}
	// And an inflate target is bounded by deflate's maximum ratio.
	file = chunkFileBytes(codecColumnar, 1, 1<<27, []byte{0x03, 0x00})
	if _, _, err := DecodeChunkFile(file); err == nil {
		t.Fatal("128 MiB inflate target for a 2-byte payload accepted")
	}
}
