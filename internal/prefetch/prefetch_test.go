package prefetch

import (
	"testing"

	"repro/internal/isa"
)

func lines(ls ...isa.Line) []isa.Line { return ls }

func equalLines(a, b []isa.Line) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNone(t *testing.T) {
	p := NewNone()
	if out := p.OnFetch(Event{Line: 5, Miss: true}, nil); len(out) != 0 {
		t.Fatalf("none produced %v", out)
	}
	if p.Name() != "none" {
		t.Fatal("name")
	}
	p.OnDiscontinuity(1, 2, true)
	p.OnPrefetchUseful(3)
	p.Reset()
}

func TestNextLineAlways(t *testing.T) {
	p := NewNextLineAlways()
	out := p.OnFetch(Event{Line: 10}, nil)
	if !equalLines(out, lines(11)) {
		t.Fatalf("out = %v", out)
	}
	out = p.OnFetch(Event{Line: 10, Miss: true}, nil)
	if !equalLines(out, lines(11)) {
		t.Fatalf("out = %v", out)
	}
}

func TestNextLineOnMiss(t *testing.T) {
	p := NewNextLineOnMiss()
	if out := p.OnFetch(Event{Line: 10}, nil); len(out) != 0 {
		t.Fatalf("hit triggered on-miss prefetcher: %v", out)
	}
	if out := p.OnFetch(Event{Line: 10, PrefetchHit: true}, nil); len(out) != 0 {
		t.Fatalf("tag hit triggered on-miss prefetcher: %v", out)
	}
	if out := p.OnFetch(Event{Line: 10, Miss: true}, nil); !equalLines(out, lines(11)) {
		t.Fatalf("out = %v", out)
	}
}

func TestNextLineTagged(t *testing.T) {
	p := NewNextLineTagged()
	if out := p.OnFetch(Event{Line: 10}, nil); len(out) != 0 {
		t.Fatalf("plain hit triggered tagged prefetcher: %v", out)
	}
	if out := p.OnFetch(Event{Line: 10, Miss: true}, nil); !equalLines(out, lines(11)) {
		t.Fatalf("miss: out = %v", out)
	}
	if out := p.OnFetch(Event{Line: 11, PrefetchHit: true}, nil); !equalLines(out, lines(12)) {
		t.Fatalf("tag hit: out = %v", out)
	}
}

func TestNextNTagged(t *testing.T) {
	p := NewNextNTagged(4)
	out := p.OnFetch(Event{Line: 100, Miss: true}, nil)
	if !equalLines(out, lines(101, 102, 103, 104)) {
		t.Fatalf("out = %v", out)
	}
	if p.Degree() != 4 || p.Name() != "n4l-tagged" {
		t.Fatal("metadata")
	}
	// Appends to existing slice.
	out = p.OnFetch(Event{Line: 200, Miss: true}, lines(1))
	if !equalLines(out, lines(1, 201, 202, 203, 204)) {
		t.Fatalf("append: out = %v", out)
	}
}

func TestNextNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNextNTagged(0) did not panic")
		}
	}()
	NewNextNTagged(0)
}

func TestLookahead(t *testing.T) {
	p := NewLookahead(4)
	if out := p.OnFetch(Event{Line: 10}, nil); len(out) != 0 {
		t.Fatalf("hit fired: %v", out)
	}
	if out := p.OnFetch(Event{Line: 10, Miss: true}, nil); !equalLines(out, lines(14)) {
		t.Fatalf("out = %v", out)
	}
	if p.Name() != "lookahead4" {
		t.Fatal("name")
	}
}

func TestDiscontinuitySequentialComponent(t *testing.T) {
	p := NewDiscontinuity(DefaultDiscontinuityConfig())
	out := p.OnFetch(Event{Line: 50, Miss: true}, nil)
	if !equalLines(out, lines(51, 52, 53, 54)) {
		t.Fatalf("empty-table candidates = %v", out)
	}
	if out := p.OnFetch(Event{Line: 50}, nil); len(out) != 0 {
		t.Fatalf("plain hit fired: %v", out)
	}
}

func TestDiscontinuityLearnsAndPredicts(t *testing.T) {
	p := NewDiscontinuity(DefaultDiscontinuityConfig())
	// Large discontinuity 100 -> 1000, target missed.
	p.OnDiscontinuity(100, 1000, true)
	if tgt, ok := p.Lookup(100); !ok || tgt != 1000 {
		t.Fatalf("lookup = %v %v", tgt, ok)
	}
	// Trigger at line 98: window covers 98..102; probe at 100 (i=2 of 4)
	// hits, emitting target 1000 plus remainder 2 lines.
	out := p.OnFetch(Event{Line: 98, Miss: true}, nil)
	want := lines(99, 100, 101, 102, 1000, 1001, 1002)
	if !equalLines(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	// Probe directly at the trigger (i=0): full remainder of 4.
	out = p.OnFetch(Event{Line: 100, Miss: true}, nil)
	want = lines(101, 102, 103, 104, 1000, 1001, 1002, 1003, 1004)
	if !equalLines(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	// Probe at window end (i=N): the remainder is empty, so exactly the
	// target is emitted.
	out = p.OnFetch(Event{Line: 96, Miss: true}, nil)
	want = lines(97, 98, 99, 100, 1000)
	if !equalLines(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestDiscontinuityIgnoresSmallForward(t *testing.T) {
	p := NewDiscontinuity(DefaultDiscontinuityConfig())
	// Within prefetch-ahead distance (4): not stored.
	p.OnDiscontinuity(100, 103, true)
	if _, ok := p.Lookup(100); ok {
		t.Fatal("small forward discontinuity stored")
	}
	// Beyond it: stored.
	p.OnDiscontinuity(100, 105, true)
	if _, ok := p.Lookup(100); !ok {
		t.Fatal("boundary+1 discontinuity not stored")
	}
	// Backward discontinuities are stored (loops back to cold code).
	p2 := NewDiscontinuity(DefaultDiscontinuityConfig())
	p2.OnDiscontinuity(100, 40, true)
	if tgt, ok := p2.Lookup(100); !ok || tgt != 40 {
		t.Fatal("backward discontinuity not stored")
	}
}

func TestDiscontinuityIgnoresNonMissing(t *testing.T) {
	p := NewDiscontinuity(DefaultDiscontinuityConfig())
	p.OnDiscontinuity(100, 1000, false)
	if _, ok := p.Lookup(100); ok {
		t.Fatal("non-missing discontinuity allocated")
	}
}

func TestDiscontinuityEvictionCounter(t *testing.T) {
	cfg := DefaultDiscontinuityConfig()
	cfg.TableEntries = 16
	p := NewDiscontinuity(cfg)
	// Lines 3 and 19 conflict in a 16-entry table.
	p.OnDiscontinuity(3, 1000, true)
	// Counter starts at 3: three conflicting candidates decrement...
	for i := 0; i < 3; i++ {
		p.OnDiscontinuity(19, 2000, true)
		if _, ok := p.Lookup(3); !ok {
			t.Fatalf("entry evicted after only %d conflicts", i+1)
		}
	}
	// ...the fourth replaces.
	p.OnDiscontinuity(19, 2000, true)
	if _, ok := p.Lookup(3); ok {
		t.Fatal("entry survived counter exhaustion")
	}
	if tgt, ok := p.Lookup(19); !ok || tgt != 2000 {
		t.Fatal("replacement did not install")
	}
	if p.Replacements() != 1 {
		t.Fatalf("replacements = %d", p.Replacements())
	}
}

func TestDiscontinuityNoCounterAblation(t *testing.T) {
	cfg := DefaultDiscontinuityConfig()
	cfg.TableEntries = 16
	cfg.NoCounter = true
	p := NewDiscontinuity(cfg)
	p.OnDiscontinuity(3, 1000, true)
	p.OnDiscontinuity(19, 2000, true) // replaces immediately
	if _, ok := p.Lookup(3); ok {
		t.Fatal("NoCounter did not replace immediately")
	}
}

func TestDiscontinuityUsefulnessCredit(t *testing.T) {
	cfg := DefaultDiscontinuityConfig()
	cfg.TableEntries = 16
	p := NewDiscontinuity(cfg)
	p.OnDiscontinuity(3, 1000, true)
	// Drain the counter to 1 via two conflicts.
	p.OnDiscontinuity(19, 2000, true)
	p.OnDiscontinuity(19, 2000, true)
	// Predict (records pending credit) and mark useful -> ctr back up.
	p.OnFetch(Event{Line: 3, Miss: true}, nil)
	p.OnPrefetchUseful(1000)
	// Now two conflicts should not evict (ctr was restored to 2).
	p.OnDiscontinuity(19, 2000, true)
	p.OnDiscontinuity(19, 2000, true)
	if _, ok := p.Lookup(3); !ok {
		t.Fatal("credited entry evicted too early")
	}
	p.OnDiscontinuity(19, 2000, true)
	if _, ok := p.Lookup(3); ok {
		t.Fatal("entry survived beyond restored credit")
	}
}

func TestDiscontinuitySameTriggerNewTarget(t *testing.T) {
	cfg := DefaultDiscontinuityConfig()
	p := NewDiscontinuity(cfg)
	p.OnDiscontinuity(3, 1000, true)
	// Same trigger, different target: decrements, then replaces at 0.
	for i := 0; i < 3; i++ {
		p.OnDiscontinuity(3, 4000, true)
		if tgt, _ := p.Lookup(3); tgt != 1000 {
			t.Fatalf("target flipped after %d attempts", i+1)
		}
	}
	p.OnDiscontinuity(3, 4000, true)
	if tgt, _ := p.Lookup(3); tgt != 4000 {
		t.Fatal("target never updated")
	}
}

func TestDiscontinuityStats(t *testing.T) {
	p := NewDiscontinuity(DefaultDiscontinuityConfig())
	p.OnDiscontinuity(100, 1000, true)
	if p.Allocations() != 1 || p.Occupancy() != 1 {
		t.Fatalf("alloc=%d occ=%d", p.Allocations(), p.Occupancy())
	}
	p.OnFetch(Event{Line: 100, Miss: true}, nil)
	if p.ProbeHitRate() <= 0 {
		t.Fatal("probe hit rate zero after a hit")
	}
	p.Reset()
	if p.Occupancy() != 0 || p.Allocations() != 0 || p.ProbeHitRate() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestDiscontinuityPendingBounded(t *testing.T) {
	p := NewDiscontinuity(DefaultDiscontinuityConfig())
	for i := 0; i < 3*pendingCap; i++ {
		tr := isa.Line(i * 10)
		p.OnDiscontinuity(tr, tr+1000, true)
		p.OnFetch(Event{Line: tr, Miss: true}, nil)
	}
	if p.pending.Len() > pendingCap {
		t.Fatalf("pending grew to %d", p.pending.Len())
	}
}

func TestDiscontinuityConfigValidate(t *testing.T) {
	bad := []DiscontinuityConfig{
		{TableEntries: 0, PrefetchAhead: 4},
		{TableEntries: 1000, PrefetchAhead: 4},
		{TableEntries: 1024, PrefetchAhead: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultDiscontinuityConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetPrefetcher(t *testing.T) {
	p := NewTarget(1024, 2)
	// Train: 10 -> 11 -> 50.
	p.OnFetch(Event{Line: 10}, nil)
	p.OnFetch(Event{Line: 11}, nil)
	p.OnFetch(Event{Line: 50}, nil)
	// Trigger at 10: chain 11 then 50.
	out := p.OnFetch(Event{Line: 10, Miss: true}, nil)
	if !equalLines(out, lines(11, 50)) {
		t.Fatalf("out = %v", out)
	}
	// Repeated same-line fetches must not train self-loops.
	p2 := NewTarget(64, 1)
	p2.OnFetch(Event{Line: 5}, nil)
	p2.OnFetch(Event{Line: 5}, nil)
	if out := p2.OnFetch(Event{Line: 5, Miss: true}, nil); len(out) != 0 {
		t.Fatalf("self-loop trained: %v", out)
	}
}

func TestTargetReset(t *testing.T) {
	p := NewTarget(64, 1)
	p.OnFetch(Event{Line: 1}, nil)
	p.OnFetch(Event{Line: 9}, nil)
	p.Reset()
	if out := p.OnFetch(Event{Line: 1, Miss: true}, nil); len(out) != 0 {
		t.Fatalf("table survived reset: %v", out)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range SchemeNames() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p == nil {
			t.Fatalf("New(%q) returned nil", name)
		}
		// Fresh instances each time (zero-size stateless prefetchers may
		// legitimately share an address, so only check stateful ones).
		if d, ok := p.(*Discontinuity); ok {
			q := MustNew(name).(*Discontinuity)
			d.OnDiscontinuity(1, 100, true)
			if _, found := q.Lookup(1); found {
				t.Fatalf("New(%q) instances share state", name)
			}
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, name := range PaperSchemes() {
		MustNew(name)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(bogus) did not panic")
		}
	}()
	MustNew("bogus")
}

func BenchmarkDiscontinuityOnFetch(b *testing.B) {
	p := NewDiscontinuity(DefaultDiscontinuityConfig())
	for i := 0; i < 1000; i++ {
		p.OnDiscontinuity(isa.Line(i*7), isa.Line(i*13+5000), true)
	}
	out := make([]isa.Line, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.OnFetch(Event{Line: isa.Line(i & 0xfff), Miss: true}, out[:0])
	}
}

func TestDiscontinuityWindowEdgeEmission(t *testing.T) {
	// A table hit at probe L+i must emit the stored target G plus the
	// remainder of the prefetch-ahead window, G+1 … G+(N−i). At the
	// window edge (i == N) that remainder is empty: exactly G, nothing
	// more. An earlier clamp emitted G and G+1 there, inflating traffic.
	cfg := DefaultDiscontinuityConfig()
	n := cfg.PrefetchAhead // 4
	p := NewDiscontinuity(cfg)

	// Store a discontinuity triggered at exactly L+N.
	trigger := isa.Line(100 + n)
	p.OnDiscontinuity(trigger, 500, true)

	out := p.OnFetch(Event{Line: 100, Miss: true}, nil)
	want := lines(101, 102, 103, 104, 500)
	if !equalLines(out, want) {
		t.Fatalf("i==N emission: got %v, want %v", out, want)
	}

	// Mid-window hit for contrast: a trigger at L+2 covers G … G+(N−2).
	p.Reset()
	p.OnDiscontinuity(102, 500, true)
	out = p.OnFetch(Event{Line: 100, Miss: true}, nil)
	want = lines(101, 102, 103, 104, 500, 501, 502)
	if !equalLines(out, want) {
		t.Fatalf("i==2 emission: got %v, want %v", out, want)
	}
}

func TestTableBitsAccounting(t *testing.T) {
	// 8192 entries -> 13 index bits; per entry: (35-13)-bit trigger tag,
	// 35-bit target, valid bit = 58 bits before counters.
	base := func(c DiscontinuityConfig) int { return c.TableBits() / c.TableEntries }
	cases := []struct {
		name string
		cfg  DiscontinuityConfig
		want int // per-entry bits
	}{
		{"paper default (2-bit counter)", DefaultDiscontinuityConfig(), 60},
		{"unset CounterMax defaults to 3", DiscontinuityConfig{TableEntries: 8192, PrefetchAhead: 4}, 60},
		{"3-bit counter", DiscontinuityConfig{TableEntries: 8192, PrefetchAhead: 4, CounterMax: 7}, 61},
		{"1-bit counter", DiscontinuityConfig{TableEntries: 8192, PrefetchAhead: 4, CounterMax: 1}, 59},
		{"no counter", DiscontinuityConfig{TableEntries: 8192, PrefetchAhead: 4, NoCounter: true}, 58},
		{"confidence adds 3 bits by default", DiscontinuityConfig{TableEntries: 8192, PrefetchAhead: 4, CounterMax: 3, ConfidenceFilter: true}, 63},
		{"4-bit confidence", DiscontinuityConfig{TableEntries: 8192, PrefetchAhead: 4, CounterMax: 3, ConfidenceFilter: true, ConfidenceMax: 15}, 64},
	}
	for _, tc := range cases {
		if got := base(tc.cfg); got != tc.want {
			t.Errorf("%s: %d bits/entry, want %d", tc.name, got, tc.want)
		}
	}
	// Smaller tables widen the trigger tag: 256 entries -> 8 index bits,
	// so the paper-default entry is 65 bits.
	small := DiscontinuityConfig{TableEntries: 256, PrefetchAhead: 4, CounterMax: 3}
	if got := small.TableBits(); got != 256*65 {
		t.Errorf("256-entry table: %d bits, want %d", got, 256*65)
	}
}
