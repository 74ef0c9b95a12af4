package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 {
		t.Fatal("page of 0")
	}
	if PageOf(8191) != 0 {
		t.Fatal("page of 8191")
	}
	if PageOf(8192) != 1 {
		t.Fatal("page of 8192")
	}
	if PageOf(3*8192+17) != 3 {
		t.Fatal("page of 3 pages + 17")
	}
}

func TestNewPanics(t *testing.T) {
	bad := []Config{
		{Entries: 0, Assoc: 2},
		{Entries: 128, Assoc: 0},
		{Entries: 130, Assoc: 4}, // not divisible
		{Entries: 96, Assoc: 2},  // 48 sets, not pow2
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	tl := New(Config{Entries: 8, Assoc: 2})
	if tl.Access(5) {
		t.Fatal("cold TLB hit")
	}
	if !tl.Access(5) {
		t.Fatal("warm TLB missed")
	}
	if tl.Accesses() != 2 || tl.Misses() != 1 {
		t.Fatalf("counters = %d/%d", tl.Accesses(), tl.Misses())
	}
}

func TestLRUWithinSet(t *testing.T) {
	tl := New(Config{Entries: 8, Assoc: 2}) // 4 sets
	// Pages 0, 4, 8 share set 0.
	tl.Access(0)
	tl.Access(4)
	tl.Access(0) // protect 0
	tl.Access(8) // evicts 4
	if !tl.Probe(0) || tl.Probe(4) || !tl.Probe(8) {
		t.Fatal("LRU within set wrong")
	}
}

func TestProbeNoFill(t *testing.T) {
	tl := New(Config{Entries: 8, Assoc: 2})
	if tl.Probe(3) {
		t.Fatal("probe hit cold TLB")
	}
	if tl.Accesses() != 0 {
		t.Fatal("probe counted as access")
	}
	if tl.Probe(3) {
		t.Fatal("probe filled the TLB")
	}
}

func TestHierarchyPenalties(t *testing.T) {
	cfg := HierarchyConfig{
		ITLB:         Config{Entries: 4, Assoc: 2},
		DTLB:         Config{Entries: 4, Assoc: 2},
		Unified:      Config{Entries: 64, Assoc: 4},
		RefillCycles: 10,
		WalkCycles:   200,
	}
	h := NewHierarchy(cfg)
	addr := isa.Addr(42 << PageBits)
	// Cold: misses everywhere -> walk.
	if got := h.TranslateI(addr); got != 200 {
		t.Fatalf("cold translate penalty = %d, want 200", got)
	}
	// Warm primary: free.
	if got := h.TranslateI(addr); got != 0 {
		t.Fatalf("warm translate penalty = %d, want 0", got)
	}
	// Thrash the tiny primary, keeping the secondary warm: refill cost.
	for p := 0; p < 16; p++ {
		h.TranslateI(isa.Addr(p) << PageBits)
	}
	if got := h.TranslateI(addr); got != 10 {
		t.Fatalf("secondary-hit penalty = %d, want 10", got)
	}
}

func TestHierarchyIDSeparation(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	a := isa.Addr(7 << PageBits)
	h.TranslateI(a)
	// Data-side lookup of the same page must miss the (separate) DTLB but
	// hit the shared secondary.
	if got := h.TranslateD(a); got != 10 {
		t.Fatalf("DTLB penalty = %d, want secondary refill 10", got)
	}
	if h.ITLB().Misses() != 1 || h.DTLB().Misses() != 1 {
		t.Fatalf("primary misses = %d/%d", h.ITLB().Misses(), h.DTLB().Misses())
	}
	if h.Unified().Misses() != 1 {
		t.Fatalf("unified misses = %d", h.Unified().Misses())
	}
}

// Property: hit rate of repeated single-page access is (n-1)/n.
func TestRepeatedAccessProperty(t *testing.T) {
	f := func(pageRaw uint32, nRaw uint8) bool {
		tl := New(Config{Entries: 128, Assoc: 2})
		p := Page(pageRaw)
		n := int(nRaw%50) + 1
		misses := 0
		for i := 0; i < n; i++ {
			if !tl.Access(p) {
				misses++
			}
		}
		return misses == 1 && tl.Accesses() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: working set within capacity never misses after one pass.
func TestCapacityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		tl := New(Config{Entries: 128, Assoc: 2})
		base := Page(seed) * 1000
		// 64 pages with distinct set mappings fit comfortably.
		for p := Page(0); p < 64; p++ {
			tl.Access(base + p)
		}
		for p := Page(0); p < 64; p++ {
			if !tl.Probe(base + p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	for i := 0; i < b.N; i++ {
		h.TranslateI(isa.Addr(i&0xfff) << PageBits)
	}
}
