package memory

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestPortUnloadedLatency(t *testing.T) {
	p := NewPort(PortConfig{LatencyCycles: 400, BytesPerCycle: 6.67, LineBytes: 64})
	if got := p.Request(100); got != 500 {
		t.Fatalf("unloaded request complete at %d, want 500", got)
	}
}

func TestPortSerialisation(t *testing.T) {
	// 64B line at 3.2 B/cycle = 20 cycles per line.
	p := NewPort(PortConfig{LatencyCycles: 400, BytesPerCycle: 3.2, LineBytes: 64})
	c1 := p.Request(0)
	c2 := p.Request(0)
	c3 := p.Request(0)
	if c1 != 400 {
		t.Fatalf("first transfer completes at %d", c1)
	}
	if c2 != 420 {
		t.Fatalf("second transfer completes at %d, want 420", c2)
	}
	if c3 != 440 {
		t.Fatalf("third transfer completes at %d, want 440", c3)
	}
	if p.Transfers() != 3 {
		t.Fatalf("transfers = %d", p.Transfers())
	}
}

func TestPortIdleGapResetsQueue(t *testing.T) {
	p := NewPort(PortConfig{LatencyCycles: 100, BytesPerCycle: 6.4, LineBytes: 64}) // 10 cyc/line
	p.Request(0)
	// A request long after the link drained sees no queueing.
	if got := p.Request(1000); got != 1100 {
		t.Fatalf("idle request completes at %d, want 1100", got)
	}
}

func TestPortInfiniteBandwidth(t *testing.T) {
	p := NewPort(PortConfig{LatencyCycles: 50, BytesPerCycle: 0, LineBytes: 64})
	for i := 0; i < 100; i++ {
		if got := p.Request(7); got != 57 {
			t.Fatalf("infinite-BW request %d completes at %d, want 57", i, got)
		}
	}
	if p.QueueDelay(7) != 0 {
		t.Fatal("infinite link must never queue")
	}
}

func TestPortQueueDelay(t *testing.T) {
	p := NewPort(PortConfig{LatencyCycles: 100, BytesPerCycle: 6.4, LineBytes: 64})
	p.Request(0) // link busy until cycle 10
	if d := p.QueueDelay(0); d != 10 {
		t.Fatalf("QueueDelay = %d, want 10", d)
	}
	if d := p.QueueDelay(50); d != 0 {
		t.Fatalf("QueueDelay after drain = %d", d)
	}
}

func TestInFlightBasics(t *testing.T) {
	f := NewInFlight()
	f.Start(isa.Line(5), 100)
	c, ok := f.Lookup(5, 50)
	if !ok || c != 100 {
		t.Fatalf("Lookup = %d %v", c, ok)
	}
	// At/after completion, the line is no longer in flight.
	if _, ok := f.Lookup(5, 100); ok {
		t.Fatal("completed line still reported in flight")
	}
	if f.Contains(5) {
		t.Fatal("completed lookup must remove entry")
	}
}

func TestInFlightKeepsEarlierCompletion(t *testing.T) {
	f := NewInFlight()
	f.Start(1, 100)
	f.Start(1, 200) // later fill of same line must not delay it
	c, _ := f.Lookup(1, 0)
	if c != 100 {
		t.Fatalf("completion = %d, want 100", c)
	}
	f.Start(1, 50) // an earlier fill improves the completion
	c, _ = f.Lookup(1, 0)
	if c != 50 {
		t.Fatalf("completion = %d, want 50", c)
	}
}

func TestInFlightExpire(t *testing.T) {
	f := NewInFlight()
	f.Start(1, 10)
	f.Start(2, 20)
	f.Start(3, 30)
	f.Expire(20)
	if f.Len() != 1 || !f.Contains(3) {
		t.Fatalf("after expire len=%d", f.Len())
	}
}

// Property: completion times from a port are monotonically non-decreasing
// when request times are non-decreasing.
func TestPortMonotoneProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		p := NewPort(PortConfig{LatencyCycles: 100, BytesPerCycle: 3.2, LineBytes: 64})
		now := uint64(0)
		last := uint64(0)
		for _, g := range gaps {
			now += uint64(g)
			c := p.Request(now)
			if c < last || c < now+100 {
				return false
			}
			last = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with B cycles/line, n back-to-back requests at cycle 0 finish
// no earlier than (n-1)*B + latency.
func TestPortBandwidthBound(t *testing.T) {
	f := func(n uint8) bool {
		p := NewPort(PortConfig{LatencyCycles: 400, BytesPerCycle: 6.4, LineBytes: 64}) // 10 cyc/line
		var last uint64
		for i := 0; i < int(n%50)+1; i++ {
			last = p.Request(0)
		}
		wantMin := uint64(int(n%50))*10 + 400
		return last >= wantMin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPortRequest(b *testing.B) {
	p := NewPort(PortConfig{LatencyCycles: 400, BytesPerCycle: 6.67, LineBytes: 64})
	for i := 0; i < b.N; i++ {
		p.Request(uint64(i) * 20)
	}
}

func BenchmarkInFlightStartLookup(b *testing.B) {
	f := NewInFlight()
	for i := 0; i < b.N; i++ {
		l := isa.Line(i & 1023)
		f.Start(l, uint64(i+100))
		f.Lookup(l, uint64(i))
	}
}
