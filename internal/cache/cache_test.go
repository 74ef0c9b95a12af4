package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B = 512B
	return New(Config{SizeBytes: 512, Assoc: 2, LineBytes: 64})
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		{SizeBytes: 2 << 20, Assoc: 4, LineBytes: 64},
		{SizeBytes: 16 << 10, Assoc: 1, LineBytes: 32},
		{SizeBytes: 512, Assoc: 2, LineBytes: 64},
		{SizeBytes: 512, Assoc: 2, LineBytes: 64, Policy: FIFO},
		{SizeBytes: 512, Assoc: 2, LineBytes: 64, Policy: Random},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, Assoc: 4, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 0, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 4, LineBytes: 0},
		{SizeBytes: 1024, Assoc: 4, LineBytes: 48},       // line size not power of two
		{SizeBytes: 1000, Assoc: 4, LineBytes: 64},       // not divisible
		{SizeBytes: 3 * 64 * 4, Assoc: 4, LineBytes: 64}, // 3 sets, not power of two
		{SizeBytes: 512, Assoc: 2, LineBytes: 64, Policy: Policy(9)},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %+v accepted", c)
		}
	}
}

func TestNumSets(t *testing.T) {
	c := Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64}
	if got := c.NumSets(); got != 128 {
		t.Fatalf("NumSets = %d, want 128", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if hit, _ := c.Access(1); hit {
		t.Fatal("empty cache must miss")
	}
	c.Insert(1, Flags{Inst: true})
	hit, prior := c.Access(1)
	if !hit {
		t.Fatal("line not found after insert")
	}
	if !prior.Inst {
		t.Fatal("flags lost on insert")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()         // 4 sets, 2 ways; lines with same value mod 4 conflict
	c.Insert(0, Flags{}) // set 0
	c.Insert(4, Flags{}) // set 0
	// Touch 0 so 4 becomes LRU.
	c.Access(0)
	v, ev := c.Insert(8, Flags{}) // set 0, must evict 4
	if !ev || v.Line != 4 {
		t.Fatalf("evicted %v (evicted=%v), want line 4", v.Line, ev)
	}
	if !c.Probe(0) || !c.Probe(8) || c.Probe(4) {
		t.Fatal("wrong post-eviction contents")
	}
}

func TestInsertExistingNoEvict(t *testing.T) {
	c := small()
	c.Insert(0, Flags{})
	c.Insert(4, Flags{})
	v, ev := c.Insert(0, Flags{Used: true}) // re-insert
	if ev {
		t.Fatalf("re-insert evicted %v", v.Line)
	}
	f, ok := c.PeekFlags(0)
	if !ok || !f.Used {
		t.Fatal("re-insert did not update flags")
	}
	if !c.Probe(4) {
		t.Fatal("re-insert displaced another line")
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := small()
	c.Insert(0, Flags{})
	c.Insert(4, Flags{})
	// 0 is LRU after inserting 4. Probe must not promote.
	if !c.Probe(0) {
		t.Fatal("probe missed present line")
	}
	_, ev := c.Insert(8, Flags{})
	if !ev {
		t.Fatal("expected eviction")
	}
	if c.Probe(0) {
		t.Fatal("probe promoted line 0: it should have been the LRU victim")
	}
}

func TestAccessConsumesPrefetchedBit(t *testing.T) {
	c := small()
	c.Insert(0, Flags{Prefetched: true, Inst: true})
	hit, prior := c.Access(0)
	if !hit || !prior.Prefetched {
		t.Fatalf("hit=%v prior=%+v, want prefetched hit", hit, prior)
	}
	f, _ := c.PeekFlags(0)
	if f.Prefetched || !f.Used {
		t.Fatalf("after access flags = %+v, want Used and not Prefetched", f)
	}
	if !f.Inst {
		t.Fatal("Inst bit must persist across access")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(0, Flags{Prefetched: true})
	f, ok := c.Invalidate(0)
	if !ok || !f.Prefetched {
		t.Fatalf("invalidate returned %+v %v", f, ok)
	}
	if c.Probe(0) {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(0); ok {
		t.Fatal("double invalidate reported success")
	}
	// Freed slot should be reusable without eviction.
	c.Insert(4, Flags{})
	_, ev := c.Insert(8, Flags{})
	if ev {
		t.Fatal("insert into freed slot evicted")
	}
}

func TestMarkUsed(t *testing.T) {
	c := small()
	c.Insert(0, Flags{Prefetched: true})
	if !c.MarkUsed(0) {
		t.Fatal("MarkUsed missed present line")
	}
	f, _ := c.PeekFlags(0)
	if !f.Used || f.Prefetched {
		t.Fatalf("flags after MarkUsed = %+v", f)
	}
	if c.MarkUsed(999) {
		t.Fatal("MarkUsed hit absent line")
	}
}

func TestDirectMapped(t *testing.T) {
	c := New(Config{SizeBytes: 256, Assoc: 1, LineBytes: 64}) // 4 sets
	c.Insert(0, Flags{})
	v, ev := c.Insert(4, Flags{}) // same set
	if !ev || v.Line != 0 {
		t.Fatalf("direct-mapped conflict did not evict: %v %v", v, ev)
	}
}

func TestCounters(t *testing.T) {
	c := small()
	c.Insert(0, Flags{})
	c.Insert(4, Flags{})
	c.Insert(8, Flags{})
	if c.Inserted() != 3 || c.Evicted() != 1 {
		t.Fatalf("counters = %d/%d, want 3/1", c.Inserted(), c.Evicted())
	}
	if c.CountValid() != 2 {
		t.Fatalf("CountValid = %d", c.CountValid())
	}
}

func TestCountValidWhere(t *testing.T) {
	c := small()
	c.Insert(0, Flags{Inst: true})
	c.Insert(1, Flags{Inst: false})
	c.Insert(2, Flags{Inst: true})
	inst := c.CountValidWhere(func(f Flags) bool { return f.Inst })
	if inst != 2 {
		t.Fatalf("instruction lines = %d, want 2", inst)
	}
}

func TestSetIsolation(t *testing.T) {
	c := small()
	// Fill set 0 beyond capacity; set 1 content must be untouched.
	c.Insert(1, Flags{}) // set 1
	for l := isa.Line(0); l < 40; l += 4 {
		c.Insert(l, Flags{}) // all set 0
	}
	if !c.Probe(1) {
		t.Fatal("thrashing set 0 evicted set 1 line")
	}
}

// Property: occupancy never exceeds capacity and a just-inserted line is
// always present.
func TestOccupancyProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(Config{SizeBytes: 1024, Assoc: 4, LineBytes: 64}) // 4 sets x 4 ways
		for _, raw := range lines {
			l := isa.Line(raw % 256)
			c.Insert(l, Flags{})
			if !c.Probe(l) {
				return false
			}
			if c.CountValid() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: inserted - evicted - invalidated == occupancy.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 512, Assoc: 2, LineBytes: 64})
		invalidated := 0
		for _, op := range ops {
			l := isa.Line(op % 64)
			if op&0x8000 != 0 {
				if _, ok := c.Invalidate(l); ok {
					invalidated++
				}
			} else {
				c.Insert(l, Flags{})
			}
		}
		return int(c.Inserted())-int(c.Evicted())-invalidated == c.CountValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU within a set — accessing a line protects it from the
// next single conflict eviction when associativity is 2.
func TestLRUProtectionProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		c := New(Config{SizeBytes: 512, Assoc: 2, LineBytes: 64}) // 4 sets
		// Two distinct lines mapping to set 0, plus a third conflicting.
		l1 := isa.Line(uint64(a)*4 + 0)
		l2 := l1 + 4
		l3 := l2 + 4
		c.Insert(l1, Flags{})
		c.Insert(l2, Flags{})
		c.Access(l1)
		c.Insert(l3, Flags{})
		return c.Probe(l1) && !c.Probe(l2) && c.Probe(l3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64})
	for l := isa.Line(0); l < 512; l++ {
		c.Insert(l, Flags{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(isa.Line(i & 511))
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New(Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(isa.Line(i), Flags{})
	}
}

func TestFIFOPolicyIgnoresReuse(t *testing.T) {
	c := New(Config{SizeBytes: 512, Assoc: 2, LineBytes: 64, Policy: FIFO})
	c.Insert(0, Flags{}) // filled first
	c.Insert(4, Flags{})
	// Heavy reuse of 0 must NOT protect it under FIFO.
	for i := 0; i < 10; i++ {
		c.Access(0)
	}
	v, ev := c.Insert(8, Flags{})
	if !ev || v.Line != 0 {
		t.Fatalf("FIFO evicted %v, want oldest fill 0", v.Line)
	}
}

func TestRandomPolicyDeterministicAndValid(t *testing.T) {
	run := func() []isa.Line {
		c := New(Config{SizeBytes: 512, Assoc: 2, LineBytes: 64, Policy: Random})
		var victims []isa.Line
		for i := 0; i < 50; i++ {
			l := isa.Line(i * 4) // all map to set 0
			if v, ev := c.Insert(l, Flags{}); ev {
				victims = append(victims, v.Line)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("victim streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy is not deterministic")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "random" {
		t.Fatal("policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must still format")
	}
}
