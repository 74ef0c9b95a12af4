package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/stats"
)

func testMem() *MemSystem {
	return NewMemSystem(MemSystemConfig{
		L2:              cache.Config{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64},
		L2LatencyCycles: 25,
		Port:            memory.PortConfig{LatencyCycles: 400, BytesPerCycle: 6.4, LineBytes: 64},
	})
}

func TestMemAccessInstrMissThenHit(t *testing.T) {
	m := testMem()
	var cs stats.CoreStats
	avail := m.AccessInstr(100, isa.MissCall, 0, &cs)
	// L2 lookup (25) then memory (400).
	if avail != 425 {
		t.Fatalf("cold access avail = %d, want 425", avail)
	}
	if cs.L2I.Accesses != 1 || cs.L2I.Misses != 1 {
		t.Fatalf("stats = %+v", cs.L2I)
	}
	if cs.L2IMissBreakdown.ByCategory[isa.MissCall] != 1 {
		t.Fatal("miss category not recorded")
	}
	// Second access (long after arrival): L2 hit.
	avail = m.AccessInstr(100, isa.MissCall, 1000, &cs)
	if avail != 1025 {
		t.Fatalf("warm access avail = %d, want 1025", avail)
	}
	if cs.L2I.Misses != 1 {
		t.Fatal("warm access counted as miss")
	}
}

func TestMemInFlightCoalescing(t *testing.T) {
	m := testMem()
	var cs stats.CoreStats
	first := m.AccessInstr(100, isa.MissSequential, 0, &cs)
	// A second demand access while the line is in flight must wait for
	// the same completion, not start a new 400-cycle transfer.
	second := m.AccessInstr(100, isa.MissSequential, 10, &cs)
	if second != first {
		t.Fatalf("coalesced access avail = %d, want %d", second, first)
	}
	if m.Port().Transfers() != 1 {
		t.Fatalf("transfers = %d, want 1", m.Port().Transfers())
	}
}

func TestMemAccessData(t *testing.T) {
	m := testMem()
	var cs stats.CoreStats
	m.AccessData(200, 0, &cs)
	if cs.L2D.Accesses != 1 || cs.L2D.Misses != 1 {
		t.Fatalf("stats = %+v", cs.L2D)
	}
	if f, ok := m.L2().PeekFlags(200); !ok || f.Inst {
		t.Fatal("data line missing or marked as instruction")
	}
	avail := m.AccessData(200, 1000, &cs)
	if avail != 1025 {
		t.Fatalf("warm data access = %d", avail)
	}
}

func TestPrefetchInstrInstallPolicy(t *testing.T) {
	// Conventional: the prefetch installs into L2.
	m := testMem()
	avail, offChip := m.PrefetchInstr(300, 0, true)
	if !offChip || avail != 425 {
		t.Fatalf("prefetch = %d %v", avail, offChip)
	}
	if f, ok := m.L2().PeekFlags(300); !ok || !f.Prefetched || !f.Inst {
		t.Fatalf("conventional prefetch not installed: %+v %v", f, ok)
	}

	// Bypass: no L2 install.
	m2 := testMem()
	m2.PrefetchInstr(300, 0, false)
	if m2.L2().Probe(300) {
		t.Fatal("bypassed prefetch installed into L2")
	}
	// But the transfer is tracked: a demand access coalesces.
	var cs stats.CoreStats
	if got := m2.AccessInstr(300, isa.MissSequential, 10, &cs); got != 425 {
		t.Fatalf("demand after bypassed prefetch = %d, want 425", got)
	}
	if m2.Port().Transfers() != 1 {
		t.Fatalf("transfers = %d", m2.Port().Transfers())
	}
}

func TestPrefetchInstrL2Hit(t *testing.T) {
	m := testMem()
	var cs stats.CoreStats
	m.AccessInstr(400, isa.MissSequential, 0, &cs)
	// Line resident in L2 (and landed): a prefetch costs only L2 latency
	// and no off-chip transfer.
	avail, offChip := m.PrefetchInstr(400, 10000, false)
	if offChip || avail != 10025 {
		t.Fatalf("L2-hit prefetch = %d %v", avail, offChip)
	}
	if m.Port().Transfers() != 1 {
		t.Fatal("prefetch of resident line went off-chip")
	}
}

func TestInstallProven(t *testing.T) {
	m := testMem()
	m.InstallProven(500)
	f, ok := m.L2().PeekFlags(500)
	if !ok || !f.Inst || !f.Used {
		t.Fatalf("proven line = %+v %v", f, ok)
	}
	// Idempotent.
	m.InstallProven(500)
	if m.L2().Inserted() != 1 {
		t.Fatalf("double install: %d inserts", m.L2().Inserted())
	}
}

func TestInstrOccupancy(t *testing.T) {
	m := testMem()
	var cs stats.CoreStats
	if m.InstrOccupancy() != 0 {
		t.Fatal("empty L2 occupancy nonzero")
	}
	m.AccessInstr(1, isa.MissSequential, 0, &cs)
	m.AccessData(2, 0, &cs)
	m.AccessData(3, 0, &cs)
	if got := m.InstrOccupancy(); got < 0.3 || got > 0.35 {
		t.Fatalf("occupancy = %v, want 1/3", got)
	}
}

func TestWritebackMemSystem(t *testing.T) {
	m := NewMemSystem(MemSystemConfig{
		L2:              cache.Config{SizeBytes: 512, Assoc: 2, LineBytes: 64}, // tiny: 4 sets x 2
		L2LatencyCycles: 25,
		Port:            memory.PortConfig{LatencyCycles: 400, BytesPerCycle: 6.4, LineBytes: 64},
		ModelWritebacks: true,
	})
	var cs stats.CoreStats
	// Fill a data line and dirty it via writeback from the L1-D.
	m.AccessData(0, 0, &cs)
	m.WritebackData(0, 100)
	if m.Writebacks() != 0 {
		t.Fatalf("in-L2 writeback went off-chip: %d", m.Writebacks())
	}
	f, _ := m.L2().PeekFlags(0)
	if !f.Dirty {
		t.Fatal("L2 line not marked dirty")
	}
	// Evicting the dirty line (set 0 conflict) charges a write transfer.
	before := m.Port().Transfers()
	m.AccessData(4, 1000, &cs)
	m.AccessData(8, 2000, &cs) // set 0 now {4,8}; 0 evicted dirty
	if m.Writebacks() != 1 {
		t.Fatalf("dirty eviction writebacks = %d, want 1", m.Writebacks())
	}
	if m.Port().Transfers() != before+2+1 {
		t.Fatalf("transfers = %d, want fills+writeback", m.Port().Transfers())
	}
	// A writeback of a line absent from the L2 writes through off-chip.
	m.WritebackData(999, 3000)
	if m.Writebacks() != 2 {
		t.Fatalf("write-through writebacks = %d, want 2", m.Writebacks())
	}
}

func TestWritebackDisabledNoTraffic(t *testing.T) {
	m := testMem() // ModelWritebacks off
	m.WritebackData(1, 0)
	if m.Writebacks() != 0 || m.Port().Transfers() != 0 {
		t.Fatal("disabled writeback produced traffic")
	}
}
