package hybrid

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prefetch"
)

// fake is a scripted component: proposes its configured candidates on
// every miss and records the usefulness feedback it receives.
type fake struct {
	prefetch.Stateless
	name    string
	cands   []isa.Line
	usefuls []isa.Line
	resets  int
}

func (f *fake) Name() string { return f.name }
func (f *fake) OnFetch(ev prefetch.Event, out []isa.Line) []isa.Line {
	if ev.Miss {
		out = append(out, f.cands...)
	}
	return out
}
func (f *fake) OnPrefetchUseful(l isa.Line) { f.usefuls = append(f.usefuls, l) }
func (f *fake) Reset()                      { f.usefuls = nil; f.resets++ }

func TestRegistryResolvesHybridNames(t *testing.T) {
	p, err := prefetch.New("hybrid:discontinuity+streams+mana")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := p.(*Composite)
	if !ok {
		t.Fatalf("got %T, want *Composite", p)
	}
	if got := c.Name(); got != "hybrid:discontinuity+streams+mana" {
		t.Errorf("Name() = %q", got)
	}
	want := []string{"discontinuity", "streams4x4", "mana"}
	got := c.Components()
	if len(got) != len(want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("components = %v, want %v", got, want)
		}
	}

	// Parameterized components ride along.
	if _, err := prefetch.New("hybrid:discontinuity:table=1024+streams:n=2,depth=4"); err != nil {
		t.Errorf("parameterized components rejected: %v", err)
	}
}

func TestHybridParseErrors(t *testing.T) {
	for name, wantSub := range map[string]string{
		"hybrid:":                     "component list",
		"hybrid:discontinuity+":       "empty element",
		"hybrid:hybrid:a+b":           "nest",
		"hybrid:discontinuity+zzz":    "zzz",
		"hybrid:discontinuity+hybrid": "nest",
	} {
		if _, err := prefetch.New(name); err == nil {
			t.Errorf("New(%q) accepted", name)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("New(%q) error %q missing %q", name, err, wantSub)
		}
	}
}

func TestDuplicateComponentLabels(t *testing.T) {
	p, err := prefetch.New("hybrid:nl-tagged+nl-tagged")
	if err != nil {
		t.Fatal(err)
	}
	got := p.(*Composite).Components()
	if got[0] != "nl-tagged" || got[1] != "nl-tagged#2" {
		t.Errorf("labels = %v, want [nl-tagged nl-tagged#2]", got)
	}
}

// TestOnFetchReturnsInputSlice extends the registry buffer contract to
// composites: the returned slice must extend the caller's.
func TestOnFetchReturnsInputSlice(t *testing.T) {
	p := prefetch.MustNew("hybrid:discontinuity+streams")
	buf := make([]isa.Line, 0, 64)
	for _, ev := range []prefetch.Event{
		{Line: 10},
		{Line: 64, Miss: true},
		{Line: 128, PrefetchHit: true},
	} {
		ret := p.OnFetch(ev, buf[:0])
		if len(ret) > cap(buf) {
			continue
		}
		if len(ret) > 0 && &ret[:1][0] != &buf[:1][0] {
			t.Errorf("OnFetch(%+v) returned a different backing array", ev)
		}
	}
}

// TestHybridDeterminism runs an eventful stream (fetches, issue and
// useful feedback, evictions) through two fresh composites and expects
// identical candidates and counters.
func TestHybridDeterminism(t *testing.T) {
	run := func() ([]isa.Line, []prefetch.ComponentCounters) {
		p := prefetch.MustNew("hybrid:discontinuity+streams+mana").(*Composite)
		var out []isa.Line
		for i := 0; i < 512; i++ {
			line := isa.Line(0x8000 + i*3%257)
			before := len(out)
			out = p.OnFetch(prefetch.Event{Line: line, Miss: i%2 == 0, PrefetchHit: i%9 == 0}, out)
			for j, c := range out[before:] {
				switch j % 3 {
				case 0:
					p.OnPrefetchIssued(c)
				case 1:
					p.OnPrefetchUseful(c)
				default:
					p.OnL1Eviction(c, false)
				}
			}
			if i%13 == 0 {
				p.OnDiscontinuity(line, line+0x111, true)
			}
		}
		return out, p.ComponentCounters()
	}
	candsA, statsA := run()
	candsB, statsB := run()
	if len(candsA) != len(candsB) {
		t.Fatalf("candidate counts differ: %d vs %d", len(candsA), len(candsB))
	}
	for i := range candsA {
		if candsA[i] != candsB[i] {
			t.Fatalf("candidate %d differs", i)
		}
	}
	for i := range statsA {
		if statsA[i] != statsB[i] {
			t.Fatalf("component %d counters differ: %+v vs %+v", i, statsA[i], statsB[i])
		}
	}
}

// TestUsefulCreditReachesFirstProposer is the attribution regression
// test: when two components propose the same line, the useful-fill
// credit must reach the FIRST proposer — the one whose candidate
// actually claimed the prefetch queue slot — not the last.
func TestUsefulCreditReachesFirstProposer(t *testing.T) {
	shared := isa.Line(0x9999)
	first := &fake{name: "first", cands: []isa.Line{shared}}
	second := &fake{name: "second", cands: []isa.Line{shared}}
	c := NewComposite("hybrid:test", []prefetch.Prefetcher{first, second}, DefaultConfig())

	c.OnFetch(prefetch.Event{Line: 0x100, Miss: true}, nil)
	c.OnPrefetchIssued(shared)
	c.OnPrefetchUseful(shared)

	cc := c.ComponentCounters()
	if cc[0].Issued != 1 || cc[0].Useful != 1 {
		t.Errorf("first proposer counters = %+v, want issued=1 useful=1", cc[0])
	}
	if cc[1].Issued != 0 || cc[1].Useful != 0 {
		t.Errorf("second proposer stole attribution: %+v", cc[1])
	}
	if len(first.usefuls) != 1 || first.usefuls[0] != shared {
		t.Errorf("first proposer's OnPrefetchUseful not called: %v", first.usefuls)
	}
	if len(second.usefuls) != 0 {
		t.Errorf("second proposer wrongly trained on the useful line: %v", second.usefuls)
	}
}

// TestGatingSuppressesAndShadowRecovers walks the arbitration loop: a
// component whose prefetches keep getting evicted unused loses its
// credit at that PC and is gated off; a useful shadow proposal earns
// the credit back and re-enables it.
func TestGatingSuppressesAndShadowRecovers(t *testing.T) {
	bad := &fake{name: "bad", cands: []isa.Line{0x7000}}
	c := NewComposite("hybrid:test", []prefetch.Prefetcher{bad}, DefaultConfig())
	pc := isa.Line(0x100)

	// Burn the initial credit: each emitted prefetch evicts unused.
	for i := 0; i < int(DefaultConfig().CreditInit); i++ {
		out := c.OnFetch(prefetch.Event{Line: pc, Miss: true}, nil)
		if len(out) != 1 {
			t.Fatalf("round %d: emitted %v while credit remained", i, out)
		}
		c.OnL1Eviction(0x7000, false)
	}

	// Credit exhausted: the proposal is suppressed into the shadow.
	out := c.OnFetch(prefetch.Event{Line: pc, Miss: true}, nil)
	if len(out) != 0 {
		t.Fatalf("gated component still emitted %v", out)
	}
	cc := c.ComponentCounters()
	if cc[0].Suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", cc[0].Suppressed)
	}

	// The line proves useful anyway (another path prefetched it, or it
	// was still cached): the shadow match refunds credit and trains the
	// component, and the next fetch emits again.
	c.OnPrefetchUseful(0x7000)
	cc = c.ComponentCounters()
	if cc[0].ShadowUseful != 1 {
		t.Errorf("shadowUseful = %d, want 1", cc[0].ShadowUseful)
	}
	if len(bad.usefuls) == 0 {
		t.Error("suppressed component did not keep training on useful feedback")
	}
	out = c.OnFetch(prefetch.Event{Line: pc, Miss: true}, nil)
	if len(out) != 1 {
		t.Errorf("component not re-enabled after shadow recovery: %v", out)
	}
}

func TestPerFetchBudgetClips(t *testing.T) {
	cands := make([]isa.Line, 20)
	for i := range cands {
		cands[i] = isa.Line(0x5000 + i)
	}
	f := &fake{name: "wide", cands: cands}
	cfg := DefaultConfig()
	c := NewComposite("hybrid:test", []prefetch.Prefetcher{f}, cfg)
	out := c.OnFetch(prefetch.Event{Line: 0x100, Miss: true}, nil)
	if len(out) != cfg.PerFetchBudget {
		t.Fatalf("emitted %d, want budget %d", len(out), cfg.PerFetchBudget)
	}
	cc := c.ComponentCounters()
	if want := uint64(len(cands) - cfg.PerFetchBudget); cc[0].BudgetClipped != want {
		t.Errorf("clipped = %d, want %d", cc[0].BudgetClipped, want)
	}
	if cc[0].Generated != uint64(len(cands)) {
		t.Errorf("generated = %d, want %d", cc[0].Generated, len(cands))
	}
}

// TestUnattributedBucketKeepsSumsExact: issues and useful fills for
// lines the arbiter never emitted (or whose owner record was evicted)
// land in the trailing bucket, so per-component sums always equal the
// front-end totals.
func TestUnattributedBucketKeepsSumsExact(t *testing.T) {
	f := &fake{name: "quiet"}
	c := NewComposite("hybrid:test", []prefetch.Prefetcher{f}, DefaultConfig())
	c.OnPrefetchIssued(0x1234)
	c.OnPrefetchUseful(0x1234)
	cc := c.ComponentCounters()
	last := cc[len(cc)-1]
	if last.Name != "unattributed" || last.Issued != 1 || last.Useful != 1 {
		t.Errorf("unattributed bucket = %+v", last)
	}
}

func TestCompositeReset(t *testing.T) {
	f := &fake{name: "x", cands: []isa.Line{0x6000}}
	c := NewComposite("hybrid:test", []prefetch.Prefetcher{f}, DefaultConfig())
	c.OnFetch(prefetch.Event{Line: 0x100, Miss: true}, nil)
	c.OnPrefetchIssued(0x6000)
	c.Reset()
	if f.resets != 1 {
		t.Errorf("component Reset called %d times, want 1", f.resets)
	}
	for i, cc := range c.ComponentCounters() {
		if cc.Generated != 0 || cc.Issued != 0 || cc.Useful != 0 || cc.Emitted != 0 {
			t.Errorf("counters %d survived Reset: %+v", i, cc)
		}
	}
	// Post-reset, attribution state is empty: an issue of the old line
	// lands in the unattributed bucket.
	c.OnPrefetchIssued(0x6000)
	cc := c.ComponentCounters()
	if cc[len(cc)-1].Issued != 1 {
		t.Error("owner table survived Reset")
	}
}
