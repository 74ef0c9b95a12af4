package bpred

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

func tiny() *Predictor {
	return New(Config{GshareEntries: 1 << 10, BTBEntries: 64, RASEntries: 4})
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	bad := []Config{
		{GshareEntries: 0, BTBEntries: 64, RASEntries: 4},
		{GshareEntries: 1000, BTBEntries: 64, RASEntries: 4}, // not pow2
		{GshareEntries: 1024, BTBEntries: 0, RASEntries: 4},
		{GshareEntries: 1024, BTBEntries: 100, RASEntries: 4},
		{GshareEntries: 1024, BTBEntries: 64, RASEntries: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCondLearnsAlwaysTaken(t *testing.T) {
	p := tiny()
	pc := isa.Addr(0x1000)
	// After a few taken outcomes the counter saturates taken.
	for i := 0; i < 4; i++ {
		p.PredictCond(pc, true)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if p.PredictCond(pc, true) {
			correct++
		}
	}
	if correct != 100 {
		t.Fatalf("saturated-taken branch mispredicted %d/100", 100-correct)
	}
}

func TestCondLearnsAlwaysNotTaken(t *testing.T) {
	p := tiny()
	pc := isa.Addr(0x2000)
	for i := 0; i < 8; i++ {
		p.PredictCond(pc, false)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if p.PredictCond(pc, false) {
			correct++
		}
	}
	// History-dependent indices: a single always-NT branch alone produces a
	// constant history (all zero bits), so it trains one counter.
	if correct != 100 {
		t.Fatalf("saturated-not-taken branch mispredicted %d/100", 100-correct)
	}
}

func TestCondRandomBranchMispredicts(t *testing.T) {
	p := tiny()
	r := rng.New(99)
	wrong := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if !p.PredictCond(0x3000, r.Bool(0.5)) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.3 {
		t.Fatalf("random branch mispredict rate = %v, expected near 0.5", rate)
	}
}

func TestMispredictCounters(t *testing.T) {
	p := tiny()
	for i := 0; i < 10; i++ {
		p.PredictCond(0x100, true)
	}
	if p.Predictions() != 10 {
		t.Fatalf("Predictions = %d", p.Predictions())
	}
	if p.MispredictRate() < 0 || p.MispredictRate() > 1 {
		t.Fatalf("rate = %v", p.MispredictRate())
	}
	var empty Predictor
	if empty.MispredictRate() != 0 {
		t.Fatal("empty predictor rate must be 0")
	}
}

func TestIndirectBTB(t *testing.T) {
	p := tiny()
	pc, tgt := isa.Addr(0x4000), isa.Addr(0x8000)
	if p.PredictIndirect(pc, tgt) {
		t.Fatal("cold BTB predicted correctly")
	}
	if !p.PredictIndirect(pc, tgt) {
		t.Fatal("warm BTB mispredicted stable target")
	}
	// Changing target mispredicts once, then is learned.
	if p.PredictIndirect(pc, 0x9000) {
		t.Fatal("changed target predicted correctly")
	}
	if !p.PredictIndirect(pc, 0x9000) {
		t.Fatal("new target not learned")
	}
}

func TestBTBAliasing(t *testing.T) {
	p := New(Config{GshareEntries: 1024, BTBEntries: 16, RASEntries: 4})
	// Two PCs 16 slots apart alias in a tagless 16-entry BTB.
	a, b := isa.Addr(0x0), isa.Addr(16*4)
	p.PredictIndirect(a, 0x111000)
	if p.PredictIndirect(b, 0x222000) {
		t.Fatal("aliased entry predicted b correctly")
	}
	// b's update destroyed a's entry.
	if p.PredictIndirect(a, 0x111000) {
		t.Fatal("aliased entry survived")
	}
}

func TestRASMatchedCallReturn(t *testing.T) {
	p := tiny()
	p.Call(0x100)
	p.Call(0x200)
	if !p.PredictReturn(0x200) {
		t.Fatal("inner return mispredicted")
	}
	if !p.PredictReturn(0x100) {
		t.Fatal("outer return mispredicted")
	}
	if p.PredictReturn(0x300) {
		t.Fatal("return on empty RAS predicted correctly")
	}
}

func TestRASOverflowKeepsNewest(t *testing.T) {
	p := tiny() // RAS depth 4
	for i := 1; i <= 6; i++ {
		p.Call(isa.Addr(i * 0x100))
	}
	if p.RASDepth() != 4 {
		t.Fatalf("RAS depth = %d", p.RASDepth())
	}
	// Newest four are 0x600..0x300; the two oldest were overwritten.
	for i := 6; i >= 3; i-- {
		if !p.PredictReturn(isa.Addr(i * 0x100)) {
			t.Fatalf("return to %#x mispredicted", i*0x100)
		}
	}
	if p.PredictReturn(0x200) {
		t.Fatal("overwritten RAS entry predicted correctly")
	}
}

func TestRASWrongTarget(t *testing.T) {
	p := tiny()
	p.Call(0x500)
	if p.PredictReturn(0x501) {
		t.Fatal("wrong return target predicted correctly")
	}
	if p.RASDepth() != 0 {
		t.Fatal("mispredicted return must still pop")
	}
}

func TestLoopPatternAccuracy(t *testing.T) {
	// A loop branch: taken 9 times, not taken once, repeated. gshare with
	// history should do much better than 50%.
	p := New(DefaultConfig())
	wrong := 0
	total := 0
	for iter := 0; iter < 500; iter++ {
		for i := 0; i < 10; i++ {
			taken := i != 9
			if !p.PredictCond(0x700, taken) {
				wrong++
			}
			total++
		}
	}
	rate := float64(wrong) / float64(total)
	if rate > 0.12 {
		t.Fatalf("loop-pattern mispredict rate = %v, want <= 0.12", rate)
	}
}

func BenchmarkPredictCond(b *testing.B) {
	p := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		p.PredictCond(isa.Addr(i&0xffff), i&3 != 0)
	}
}
