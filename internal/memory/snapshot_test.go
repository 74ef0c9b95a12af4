package memory

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

func TestPortSnapshotRoundTrip(t *testing.T) {
	cfg := PortConfig{LatencyCycles: 400, BytesPerCycle: 3.3, LineBytes: 64}
	a := NewPort(cfg)
	for now := uint64(0); now < 50; now += 3 {
		a.Request(now)
	}
	snap := a.Snapshot()

	b := NewPort(cfg)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.Transfers() != a.Transfers() || b.BusyCycles() != a.BusyCycles() {
		t.Fatalf("counters lost: %d/%.1f vs %d/%.1f", b.Transfers(), b.BusyCycles(), a.Transfers(), a.BusyCycles())
	}
	// The schedule cursor (nextFree) is float-precise: subsequent
	// identical requests must complete at identical times.
	for now := uint64(60); now < 100; now += 7 {
		if ca, cb := a.Request(now), b.Request(now); ca != cb {
			t.Fatalf("restored port schedule diverged at %d: %d vs %d", now, cb, ca)
		}
	}
	if err := b.Restore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestInFlightSnapshotRoundTrip(t *testing.T) {
	a := NewInFlight()
	x := uint64(42)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l := isa.Line(x >> 40 & 0xFF)
		switch x & 3 {
		case 0, 1:
			a.Start(l, uint64(i)+100)
		case 2:
			a.Complete(l)
		case 3:
			a.Expire(uint64(i))
		}
	}
	snap := a.Snapshot()

	// The tracker grows dynamically, so restore must adopt the
	// snapshot's table size even when the target's table grew
	// differently.
	b := NewInFlight()
	y := uint64(7)
	for i := 0; i < 500; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		b.Start(isa.Line(y>>20&0xFFFF), uint64(i)+1000)
	}
	if b.t.Size() == a.t.Size() {
		t.Fatal("test setup: tables grew to the same size; grow the churn")
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored tracker differs from its source")
	}
	// Identical further operations produce identical lookups (probe
	// order included).
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l := isa.Line(x >> 40 & 0xFF)
		ra, oka := a.Lookup(l, uint64(i))
		rb, okb := b.Lookup(l, uint64(i))
		if ra != rb || oka != okb {
			t.Fatalf("restored tracker diverged on line %d: (%d,%v) vs (%d,%v)", l, ra, oka, rb, okb)
		}
		a.Start(l, uint64(i)+50)
		b.Start(l, uint64(i)+50)
	}
	if err := b.Restore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
