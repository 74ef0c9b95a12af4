package cmp

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/prefetch"
)

func TestDefaultConfigValid(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		cfg := DefaultConfig(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultConfig(%d): %v", n, err)
		}
	}
	// Bandwidth scales with core count.
	if DefaultConfig(4).Mem.Port.BytesPerCycle <= DefaultConfig(1).Mem.Port.BytesPerCycle {
		t.Error("CMP should have more off-chip bandwidth than single core")
	}
}

func TestValidateRejects(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.NumCores = 0 },
		func(c *Config) { c.FrontEnd.L1I = cache.Config{SizeBytes: 100, Assoc: 3, LineBytes: 48} },
		func(c *Config) { c.Mem.L2.SizeBytes = 0 },
		func(c *Config) { c.Core.L1D.Assoc = 0 },
		func(c *Config) { c.PrefetcherName = "bogus" },
	}
	for i, mod := range mods {
		cfg := DefaultConfig(1)
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("modification %d accepted", i)
		}
	}
}

func TestSourcesForHomogeneousSharesProgram(t *testing.T) {
	srcs, err := SourcesFor([]string{"Web"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 4 {
		t.Fatalf("%d sources", len(srcs))
	}
	// Threads of one process share the code image: all fetch addresses
	// fall in the same address space (high bits equal).
	seen := map[uint64]bool{}
	for _, s := range srcs {
		var blk isa.Block
		s.Next(&blk)
		seen[uint64(blk.PC)>>44] = true
	}
	if len(seen) != 1 {
		t.Fatalf("homogeneous threads span %d address spaces", len(seen))
	}
	// But their streams must be desynchronised.
	var b1, b2 isa.Block
	diverged := false
	g1, g2 := srcs[0], srcs[1]
	for i := 0; i < 1000; i++ {
		g1.Next(&b1)
		g2.Next(&b2)
		if b1.PC != b2.PC {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("thread streams identical")
	}
}

func TestSourcesForMixDisjointSpaces(t *testing.T) {
	srcs, err := SourcesFor([]string{"DB", "TPC-W", "jApp", "Web"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i, s := range srcs {
		var blk isa.Block
		s.Next(&blk)
		asid := uint64(blk.PC) >> 44
		if seen[asid] {
			t.Fatalf("mix core %d shares an address space", i)
		}
		seen[asid] = true
	}
}

func TestSourcesForUnknownApp(t *testing.T) {
	if _, err := SourcesFor([]string{"nope"}, 1, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestNewRejectsSourceMismatch(t *testing.T) {
	srcs, _ := SourcesFor([]string{"Web"}, 2, 1)
	if _, err := New(DefaultConfig(4), srcs, nil); err == nil {
		t.Fatal("source/core mismatch accepted")
	}
}

func TestSystemRunDeterministic(t *testing.T) {
	run := func() (uint64, float64) {
		srcs, _ := SourcesFor([]string{"Web"}, 2, 3)
		cfg := DefaultConfig(2)
		cfg.PrefetcherName = "n4l-tagged"
		sys := MustNew(cfg, srcs, nil)
		sys.Run(50_000)
		sys.Finalize()
		total := sys.TotalStats()
		return total.L1I.Misses, sys.AggregateIPC()
	}
	m1, ipc1 := run()
	m2, ipc2 := run()
	if m1 != m2 || ipc1 != ipc2 {
		t.Fatalf("nondeterministic: %d/%v vs %d/%v", m1, ipc1, m2, ipc2)
	}
}

func TestSystemRunBalancesCores(t *testing.T) {
	srcs, _ := SourcesFor([]string{"DB"}, 4, 1)
	sys := MustNew(DefaultConfig(4), srcs, nil)
	sys.Run(60_000)
	for i := 0; i < 4; i++ {
		got := sys.CoreStats(i).Instructions
		if got < 60_000 || got > 70_000 {
			t.Fatalf("core %d retired %d instructions", i, got)
		}
	}
	// Clocks must be loosely synchronised by the min-clock scheduler.
	minC, maxC := sys.Cores()[0].Clock(), sys.Cores()[0].Clock()
	for _, c := range sys.Cores()[1:] {
		if c.Clock() < minC {
			minC = c.Clock()
		}
		if c.Clock() > maxC {
			maxC = c.Clock()
		}
	}
	if maxC > 3*minC {
		t.Fatalf("core clocks diverged: %v .. %v", minC, maxC)
	}
}

func TestSharedL2Contention(t *testing.T) {
	// The multiprogrammed mix must see a higher L2 instruction miss
	// ratio than the homogeneous (code-sharing) machine.
	missRatio := func(apps []string) float64 {
		srcs, _ := SourcesFor(apps, 4, 1)
		sys := MustNew(DefaultConfig(4), srcs, nil)
		sys.Run(150_000)
		sys.ResetStats()
		sys.Run(250_000)
		sys.Finalize()
		tot := sys.TotalStats()
		return tot.L2I.PerInstr(tot.Instructions)
	}
	homog := missRatio([]string{"Web"})
	mix := missRatio([]string{"DB", "TPC-W", "jApp", "Web"})
	if mix <= homog {
		t.Fatalf("mix L2I (%v) not above homogeneous Web (%v)", mix, homog)
	}
}

func TestPrefetcherOverride(t *testing.T) {
	srcs, _ := SourcesFor([]string{"Web"}, 1, 1)
	cfg := DefaultConfig(1)
	cfg.PrefetcherName = "discontinuity"
	built := 0
	sys := MustNew(cfg, srcs, func(coreID int) prefetch.Prefetcher {
		built++
		c := prefetch.DefaultDiscontinuityConfig()
		c.TableEntries = 256
		return prefetch.NewDiscontinuity(c)
	})
	if built != 1 {
		t.Fatalf("override called %d times", built)
	}
	sys.Run(10_000)
	d := sys.Cores()[0].FrontEnd().Prefetcher().(*prefetch.Discontinuity)
	if d.Config().TableEntries != 256 {
		t.Fatal("override not used")
	}
}

func TestAggregateIPCMatchesTotals(t *testing.T) {
	srcs, _ := SourcesFor([]string{"Web"}, 2, 1)
	sys := MustNew(DefaultConfig(2), srcs, nil)
	sys.Run(40_000)
	sys.Finalize()
	tot := sys.TotalStats()
	if sys.AggregateIPC() != tot.IPC() {
		t.Fatal("AggregateIPC diverges from TotalStats().IPC()")
	}
}

// Physics sanity: shrinking off-chip bandwidth must not speed the chip
// up, and raising memory latency must slow it down.
func TestBandwidthMonotonicity(t *testing.T) {
	ipcAt := func(bytesPerCycle float64) float64 {
		cfg := DefaultConfig(4)
		cfg.Mem.Port.BytesPerCycle = bytesPerCycle
		cfg.PrefetcherName = "discontinuity"
		cfg.FrontEnd.BypassL2 = true
		srcs, _ := SourcesFor([]string{"DB"}, 4, 1)
		sys := MustNew(cfg, srcs, nil)
		sys.Run(80_000)
		sys.ResetStats()
		sys.Run(150_000)
		sys.Finalize()
		return sys.AggregateIPC()
	}
	narrow := ipcAt(0.5) // 1.5 GB/s at 3 GHz
	wide := ipcAt(16)    // 48 GB/s
	if narrow >= wide {
		t.Fatalf("narrow link IPC %.3f >= wide link IPC %.3f", narrow, wide)
	}
}

func TestMemoryLatencyMonotonicity(t *testing.T) {
	ipcAt := func(latency uint64) float64 {
		cfg := DefaultConfig(1)
		cfg.Mem.Port.LatencyCycles = latency
		srcs, _ := SourcesFor([]string{"jApp"}, 1, 1)
		sys := MustNew(cfg, srcs, nil)
		sys.Run(80_000)
		sys.ResetStats()
		sys.Run(150_000)
		sys.Finalize()
		return sys.AggregateIPC()
	}
	fast := ipcAt(100)
	slow := ipcAt(800)
	if slow >= fast {
		t.Fatalf("800-cycle memory IPC %.3f >= 100-cycle IPC %.3f", slow, fast)
	}
}

func TestLargerL2Helps(t *testing.T) {
	missAt := func(size int) float64 {
		cfg := DefaultConfig(4)
		cfg.Mem.L2 = cache.Config{SizeBytes: size, Assoc: 4, LineBytes: 64}
		srcs, _ := SourcesFor([]string{"DB", "TPC-W", "jApp", "Web"}, 4, 1)
		sys := MustNew(cfg, srcs, nil)
		sys.Run(120_000)
		sys.ResetStats()
		sys.Run(200_000)
		sys.Finalize()
		tot := sys.TotalStats()
		return tot.L2I.PerInstr(tot.Instructions) + tot.L2D.PerInstr(tot.Instructions)
	}
	small := missAt(1 << 20)
	big := missAt(8 << 20)
	if big >= small {
		t.Fatalf("8MB L2 missing more than 1MB: %.5f vs %.5f", big, small)
	}
}

func TestWritebackAddsTraffic(t *testing.T) {
	transfers := func(wb bool) (uint64, uint64) {
		cfg := DefaultConfig(1)
		cfg.ModelWritebacks = wb
		srcs, _ := SourcesFor([]string{"DB"}, 1, 1)
		sys := MustNew(cfg, srcs, nil)
		sys.Run(200_000)
		return sys.Mem().Port().Transfers(), sys.Mem().Writebacks()
	}
	plainT, plainW := transfers(false)
	wbT, wbW := transfers(true)
	if plainW != 0 {
		t.Fatalf("writebacks counted while disabled: %d", plainW)
	}
	if wbW == 0 {
		t.Fatal("no writebacks generated when enabled")
	}
	if wbT <= plainT {
		t.Fatalf("writeback traffic did not raise transfers: %d vs %d", wbT, plainT)
	}
}

// TestSharedInFlightStaysBounded: the machine's periodic expiry of
// fills landed for every core keeps the shared in-flight table small.
// Expired only by the front ends every 16 384 fetches, this machine's
// table reaches 65 536 slots by 100 000 instructions per core.
func TestSharedInFlightStaysBounded(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PrefetcherName = "discontinuity"
	cfg.FrontEnd.BypassL2 = true
	srcs, err := SourcesFor([]string{"DB", "jApp", "Web", "DB"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := MustNew(cfg, srcs, nil)
	for i := 0; i < 8; i++ {
		sys.Run(50_000)
		if n := sys.Mem().InFlight().Slots(); n > 1<<14 {
			t.Fatalf("after %d instructions per core: %d in-flight slots, want at most %d", 50_000*(i+1), n, 1<<14)
		}
	}
}
