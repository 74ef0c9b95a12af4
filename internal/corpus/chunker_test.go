package corpus

// The chunker lives in internal/trace, which cuts container frames with
// it; these tests pin, from the store's side, the geometry every
// stored recipe depends on.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func testChunker() trace.Chunker {
	return trace.Chunker{MinBytes: 256, AvgBytes: 1024, MaxBytes: 4096}
}

func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	r.Read(p)
	return p
}

func checkCuts(t *testing.T, c trace.Chunker, data []byte, cuts []int) {
	t.Helper()
	if len(data) == 0 {
		if cuts != nil {
			t.Fatalf("Split(empty) = %v", cuts)
		}
		return
	}
	prev := 0
	for i, cut := range cuts {
		size := cut - prev
		if size <= 0 {
			t.Fatalf("cut %d: non-positive chunk size %d", i, size)
		}
		if size > c.MaxBytes {
			t.Fatalf("cut %d: chunk size %d > max %d", i, size, c.MaxBytes)
		}
		if i < len(cuts)-1 && size < c.MinBytes {
			t.Fatalf("cut %d: interior chunk size %d < min %d", i, size, c.MinBytes)
		}
		prev = cut
	}
	if prev != len(data) {
		t.Fatalf("last cut %d != len %d", prev, len(data))
	}
}

func TestChunkerValidate(t *testing.T) {
	if err := trace.DefaultChunker().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []trace.Chunker{
		{MinBytes: 16, AvgBytes: 1024, MaxBytes: 4096},  // min < window
		{MinBytes: 256, AvgBytes: 1000, MaxBytes: 4096}, // avg not power of two
		{MinBytes: 2048, AvgBytes: 1024, MaxBytes: 512}, // out of order
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", c)
		}
	}
}

func TestSplitInvariants(t *testing.T) {
	c := testChunker()
	for _, n := range []int{0, 1, 100, 255, 256, 4096, 1 << 16, 1<<18 + 77} {
		data := randBytes(int64(n), n)
		cuts := c.Split(data)
		checkCuts(t, c, data, cuts)
		// Determinism.
		again := c.Split(data)
		if len(again) != len(cuts) {
			t.Fatalf("n=%d: Split not deterministic", n)
		}
		for i := range cuts {
			if cuts[i] != again[i] {
				t.Fatalf("n=%d: Split not deterministic at %d", n, i)
			}
		}
	}
}

// TestSplitDegenerateInput: constant input has a constant rolling hash,
// so either every eligible position cuts or none does; both ways the
// size bounds must hold.
func TestSplitDegenerateInput(t *testing.T) {
	c := testChunker()
	for _, b := range []byte{0x00, 0xff, 0x41} {
		data := bytes.Repeat([]byte{b}, 1<<16)
		checkCuts(t, c, data, c.Split(data))
	}
}

// TestSplitResyncsAfterEdit is the dedup property: prepending bytes
// shifts early boundaries, but once the two boundary sequences agree
// at one content position they agree at every later one.
func TestSplitResyncsAfterEdit(t *testing.T) {
	c := testChunker()
	data := randBytes(42, 1<<18)
	orig := c.Split(data)
	shifted := c.Split(append([]byte{0xA5}, data...))
	// Map shifted cuts back into original content positions.
	content := make(map[int]bool, len(orig))
	for _, cut := range orig {
		content[cut] = true
	}
	common := -1
	for _, cut := range shifted {
		if content[cut-1] {
			common = cut - 1
			break
		}
	}
	if common < 0 {
		t.Fatal("boundaries never resynchronised after a 1-byte prefix insertion")
	}
	// After the first common boundary, every original boundary must
	// appear in the shifted stream and vice versa.
	after := make(map[int]bool)
	for _, cut := range shifted {
		if cut-1 >= common {
			after[cut-1] = true
		}
	}
	for _, cut := range orig {
		if cut >= common && !after[cut] {
			t.Fatalf("boundary %d lost after resync point %d", cut, common)
		}
		if cut >= common {
			delete(after, cut)
		}
	}
	if len(after) != 0 {
		t.Fatalf("shifted stream has extra boundaries after resync: %v", after)
	}
	// Resync should happen quickly relative to the stream.
	if common > 8*c.MaxBytes {
		t.Fatalf("resync took %d bytes (max chunk %d)", common, c.MaxBytes)
	}
}

// TestAlignedChunkerMatchesSplitStatistics: the record-aligned form
// the store cuts with defers each cut to a record end but tracks the
// same boundary signal, so its chunks obey min/max plus at most one
// record of slack.
func TestAlignedChunkerMatchesSplitStatistics(t *testing.T) {
	cfg := trace.DefaultChunker()
	blocks := genBlocks(t, workload.DB(), 7, 40000)
	cb := trace.NewChunkBuilder()
	var sizes []int
	for i := range blocks {
		before := len(cb.Raw())
		full := cb.Add(&blocks[i])
		if rec := len(cb.Raw()) - before; len(cb.Raw())-rec >= cfg.MaxBytes {
			t.Fatalf("chunk grew past max %d before this record", cfg.MaxBytes)
		}
		if full {
			sizes = append(sizes, len(cb.Raw()))
			cb.Reset()
		}
	}
	if len(sizes) < 10 {
		t.Fatalf("only %d aligned chunks from %d blocks", len(sizes), len(blocks))
	}
	for i, size := range sizes {
		if size < cfg.MinBytes {
			t.Fatalf("aligned chunk %d: size %d < min %d", i, size, cfg.MinBytes)
		}
	}
}
