package trace

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	r.Read(p)
	return p
}

// FuzzReader feeds arbitrary bytes to the trace reader; it must never
// panic and must either produce valid blocks or a clean error. The
// seeds cover each input it reads: a chunk-file container (so the
// fuzzer reaches the chunk codec), a legacy container of 0x01 frames
// and a legacy v1 stream, each whole, cut in half and with bytes
// flipped.
func FuzzReader(f *testing.F) {
	prog := workload.MustBuildProgram(workload.Web(), 0)
	var buf bytes.Buffer
	if err := Record(&buf, "Web", 0, workload.NewGenerator(prog, 1), 600); err != nil {
		f.Fatal(err)
	}
	inputs := [][]byte{buf.Bytes()}
	for _, name := range []string{"testdata/legacy-v2-flate-frames.trc", "testdata/legacy-v1.trc"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		inputs = append(inputs, data)
	}
	for _, valid := range inputs {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		mutated := append([]byte(nil), valid...)
		for i := 20; i < len(mutated); i += 37 {
			mutated[i] ^= 0xff
		}
		f.Add(mutated)
	}
	f.Add([]byte("IPFTRC01"))
	f.Add([]byte("IPFTRC02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var b isa.Block
		for i := 0; i < 10_000; i++ {
			err := r.Read(&b)
			if err == io.EOF {
				return
			}
			if err != nil {
				return // corrupt record rejected cleanly
			}
			// Every accepted block must be structurally valid.
			if verr := b.Validate(); verr != nil {
				t.Fatalf("reader returned invalid block: %v", verr)
			}
		}
	})
}

// FuzzRoundTripV2 checks that any generator prefix survives a container
// encode/decode round trip bit-exactly.
func FuzzRoundTripV2(f *testing.F) {
	f.Add(uint64(1), uint16(200))
	f.Add(uint64(7), uint16(1))
	f.Add(uint64(42), uint16(1000))
	f.Add(uint64(3), uint16(5130))

	prog := workload.MustBuildProgram(workload.Web(), 0)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		var buf bytes.Buffer
		if err := Record(&buf, "Web", 0, workload.NewGenerator(prog, seed), uint64(n)); err != nil {
			t.Fatal(err)
		}
		ref := workload.NewGenerator(prog, seed)
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var want, got isa.Block
		for i := 0; i < int(n); i++ {
			ref.Next(&want)
			if err := r.Read(&got); err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
			if !blocksEqual(&got, &want) {
				t.Fatalf("block %d mismatch", i)
			}
		}
		if err := r.Read(&got); err != io.EOF {
			t.Fatalf("tail = %v, want EOF", err)
		}
	})
}

// FuzzLoop checks the looping replay path against arbitrary input.
func FuzzLoop(f *testing.F) {
	prog := workload.MustBuildProgram(workload.Web(), 0)
	var buf bytes.Buffer
	if err := Record(&buf, "Web", 0, workload.NewGenerator(prog, 1), 50); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := NewLoop(data)
		if err != nil {
			return
		}
		// A loop that validated must replay indefinitely without
		// panicking... unless the trace is corrupt mid-stream, in which
		// case Next panics by contract; treat that as rejection only if
		// the first full pass succeeded.
		defer func() { _ = recover() }()
		var b isa.Block
		for i := 0; i < 500; i++ {
			l.Next(&b)
		}
	})
}

// FuzzChunker checks the content-defined chunker's hard invariants on
// arbitrary byte streams:
//
//  1. reassembling the chunks yields exactly the input;
//  2. every chunk is within [MinBytes, MaxBytes] except a short final
//     remainder;
//  3. splitting is deterministic;
//  4. after a 1-byte prefix insertion, once the boundary sequences
//     share one content position they agree on every later one
//     (the dedup resynchronisation property — absolute stability is
//     impossible because min/max forcing depends on the previous cut).
func FuzzChunker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello, chunker"))
	f.Add(bytes.Repeat([]byte{0}, 10000))
	f.Add(bytes.Repeat([]byte{0xff}, 5000))
	f.Add(bytes.Repeat([]byte("abcdefg"), 2000))
	f.Add(randBytes(1, 20000))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := Chunker{MinBytes: 128, AvgBytes: 512, MaxBytes: 2048}
		cuts := c.Split(data)

		// (1) + (2): reassembly and size bounds.
		if len(data) == 0 {
			if cuts != nil {
				t.Fatalf("Split(empty) = %v", cuts)
			}
			return
		}
		var rejoined []byte
		prev := 0
		for i, cut := range cuts {
			if cut <= prev || cut > len(data) {
				t.Fatalf("cut %d = %d out of order (prev %d, len %d)", i, cut, prev, len(data))
			}
			size := cut - prev
			if size > c.MaxBytes {
				t.Fatalf("chunk %d: size %d > max", i, size)
			}
			if i < len(cuts)-1 && size < c.MinBytes {
				t.Fatalf("chunk %d: interior size %d < min", i, size)
			}
			rejoined = append(rejoined, data[prev:cut]...)
			prev = cut
		}
		if prev != len(data) || !bytes.Equal(rejoined, data) {
			t.Fatal("chunks do not reassemble to the input")
		}

		// (3): determinism.
		again := c.Split(data)
		if len(again) != len(cuts) {
			t.Fatal("Split not deterministic")
		}
		for i := range cuts {
			if cuts[i] != again[i] {
				t.Fatal("Split not deterministic")
			}
		}

		// (4): boundary agreement after the first shared position under
		// a 1-byte prefix insertion. A shifted cut at offset k is the
		// content position k-1.
		shifted := c.Split(append([]byte{0x5a}, data...))
		content := make(map[int]bool, len(cuts))
		for _, cut := range cuts {
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
			return // short/degenerate inputs may never resync; nothing to check
		}
		shiftedAfter := make(map[int]bool)
		for _, cut := range shifted {
			if cut-1 >= common {
				shiftedAfter[cut-1] = true
			}
		}
		for _, cut := range cuts {
			if cut >= common {
				if !shiftedAfter[cut] {
					t.Fatalf("boundary %d lost after shared position %d", cut, common)
				}
				delete(shiftedAfter, cut)
			}
		}
		if len(shiftedAfter) != 0 {
			t.Fatalf("extra boundaries after shared position %d: %v", common, shiftedAfter)
		}
	})
}
