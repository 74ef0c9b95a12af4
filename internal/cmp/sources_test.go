package cmp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/isa"
)

// streamHash is an FNV-64a digest of the first n blocks of each source
// in order: PC, NumInstrs, CTI, Target and every MemOp's address and
// kind.
func streamHash(t *testing.T, names []string, numCores int, seed uint64, n int) uint64 {
	t.Helper()
	srcs, err := SourcesFor(names, numCores, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var b isa.Block
	for _, src := range srcs {
		for i := 0; i < n; i++ {
			src.Next(&b)
			put(uint64(b.PC))
			put(uint64(b.NumInstrs))
			put(uint64(b.CTI))
			put(uint64(b.Target))
			for _, m := range b.MemOps {
				put(uint64(m.Addr))
				put(uint64(m.Kind))
			}
		}
	}
	return h.Sum64()
}

// TestSourcesForStreamGolden pins the generated block streams bit for
// bit: sharing an image's data samplers between threads must not move
// a single address.
func TestSourcesForStreamGolden(t *testing.T) {
	cases := []struct {
		names []string
		want  uint64
	}{
		{[]string{"DB"}, 0x10959b0936e91b37},
		{[]string{"DB", "TPC-W", "jApp", "Web"}, 0xf4d403652d794d0},
	}
	for _, c := range cases {
		if got := streamHash(t, c.names, 4, 7, 20000); got != c.want {
			t.Errorf("%v on 4 cores: stream hash %#x, want %#x", c.names, got, c.want)
		}
	}
}

// Once an image's data samplers exist, building a machine's sources
// allocates only the per-thread cursors: no sampler table is rebuilt
// per thread (the tables for the Mix come to over a megabyte).
func TestSourcesForReusesImageSamplers(t *testing.T) {
	names := []string{"DB", "TPC-W", "jApp", "Web"}
	if _, err := SourcesFor(names, 4, 1); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SourcesFor(names, 4, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("SourcesFor allocates %d B per call, want < 64 KiB", got)
	}
}

func BenchmarkSourcesFor(b *testing.B) {
	for _, c := range []struct {
		name  string
		names []string
	}{
		{"DB", []string{"DB"}},
		{"Mixed", []string{"DB", "TPC-W", "jApp", "Web"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SourcesFor(c.names, 4, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
