// Package hybrid implements a composite instruction prefetcher: N
// component schemes run concurrently behind a per-trigger-PC arbiter
// that learns, PC by PC, which components issue useful prefetches and
// gates off the ones that don't — the dispatcher shape of Pythia's
// multi-prefetcher configurations, applied to this simulator's
// instruction-side schemes.
//
// Every candidate a component proposes is tagged with its origin in a
// bounded owner table, so useful-fill credit, eviction penalties and
// per-component issued/useful statistics all reach the component that
// actually produced the line. Suppressed components run in shadow mode:
// their proposals are remembered (but not emitted), keep training their
// internal tables, and earn arbitration credit back when a shadow
// proposal would have been useful — so a component that becomes good on
// a PC is re-enabled instead of starved forever.
//
// Composites are built through the scheme registry as
// "hybrid:a+b+c" (e.g. "hybrid:discontinuity+streams+mana"); each
// component may itself be parameterized ("hybrid:discontinuity:table=1024+streams:n=2,depth=4").
package hybrid

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/linetab"
	"repro/internal/prefetch"
)

func init() {
	prefetch.RegisterFamily("hybrid", func(args string) (prefetch.Prefetcher, error) {
		return Parse(args)
	})
}

// Parse builds a Composite from the component list of a "hybrid:a+b+c"
// scheme name with the default arbitration configuration.
func Parse(args string) (*Composite, error) {
	if strings.TrimSpace(args) == "" {
		return nil, fmt.Errorf("hybrid needs a '+'-separated component list, e.g. hybrid:discontinuity+streams")
	}
	parts := strings.Split(args, "+")
	comps := make([]prefetch.Prefetcher, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("hybrid component list %q has an empty element", args)
		}
		if part == "hybrid" || strings.HasPrefix(part, "hybrid:") {
			return nil, fmt.Errorf("hybrid components cannot nest another hybrid (%q)", part)
		}
		p, err := prefetch.New(part)
		if err != nil {
			return nil, err
		}
		comps = append(comps, p)
	}
	return NewComposite("hybrid:"+args, comps, DefaultConfig()), nil
}

// Config parameterises the arbiter.
type Config struct {
	// TableEntries sizes the direct-mapped per-trigger-PC arbitration
	// table. Power of two, at most 1<<24 (slot indices share a packed
	// word with the component index).
	TableEntries int
	// CreditInit seeds each (PC, component) credit counter when a PC is
	// first seen; CreditMax saturates it. A component may emit for a PC
	// while its credit is above zero: useful fills push it up, unused
	// evicted prefetches push it down.
	CreditInit, CreditMax uint8
	// PerFetchBudget bounds how many candidates one component may emit
	// per fetch event; the arbiter clips the excess.
	PerFetchBudget int
	// OwnerEntries sizes the candidate-attribution and shadow tables.
	OwnerEntries int
	// EWMAShift sets the per-component accuracy EWMA's time constant
	// (alpha = 2^-EWMAShift).
	EWMAShift uint
}

// DefaultConfig returns the arbitration parameters used by registry-built
// composites.
func DefaultConfig() Config {
	return Config{
		TableEntries:   4096,
		CreditInit:     4,
		CreditMax:      7,
		PerFetchBudget: 8,
		OwnerEntries:   4096,
		EWMAShift:      4,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0 || c.TableEntries > 1<<24 {
		return fmt.Errorf("hybrid: table entries %d not a positive power of two <= 2^24", c.TableEntries)
	}
	if c.CreditInit == 0 || c.CreditMax < c.CreditInit {
		return fmt.Errorf("hybrid: credit init %d must be >= 1 and <= max %d", c.CreditInit, c.CreditMax)
	}
	if c.PerFetchBudget < 1 {
		return fmt.Errorf("hybrid: per-fetch budget %d must be >= 1", c.PerFetchBudget)
	}
	if c.OwnerEntries < 1 {
		return fmt.Errorf("hybrid: owner entries %d must be >= 1", c.OwnerEntries)
	}
	if c.EWMAShift < 1 || c.EWMAShift > 15 {
		return fmt.Errorf("hybrid: EWMA shift %d out of range 1..15", c.EWMAShift)
	}
	return nil
}

// ewmaOne is the fixed-point representation of accuracy 1.0.
const ewmaOne = 1 << 16

// ewmaLow is the accuracy estimate below which a component's per-fetch
// budget is halved (a component mostly polluting the queue gets fewer
// slots even on PCs where it still has credit).
const ewmaLow = ewmaOne / 8

// compStats is one component's counter block (plus the trailing
// unattributed bucket, which only uses issued/useful).
type compStats struct {
	generated, emitted, suppressed, clipped uint64
	issued, useful, shadowUseful            uint64
}

// Composite is the arbitrating prefetcher. It implements
// prefetch.Prefetcher plus the IssueObserver, EvictionObserver,
// BranchObserver and ComponentReporter extensions. Like every
// prefetcher it is single-core state, not safe for concurrent use.
type Composite struct {
	name string
	cfg  Config

	comps  []prefetch.Prefetcher
	labels []string
	evict  []prefetch.EvictionObserver // parallel to comps; nil = not an observer
	branch []prefetch.BranchObserver   // parallel to comps; nil = not an observer

	mask    uint64
	scratch []isa.Line // reusable component candidate buffer
	compositeState
}

// compositeState is a Composite's own dynamic state; each component
// snapshots its own.
type compositeState struct {
	// Per-trigger-PC arbitration table: tag + per-component credit.
	pcTags  []isa.Line
	pcValid []bool
	credit  [][]uint8 // [component][slot]

	// attr owns lines the arbiter emitted; shadow remembers suppressed
	// proposals. Both map a line to its packed owner, bounded at
	// OwnerEntries in twice as many slots, first proposer wins (see
	// arbitrate).
	attr   *linetab.Table[uint32]
	shadow *linetab.Table[uint32]

	stats []compStats // len(comps)+1; last is the unattributed bucket
	ewma  []uint32    // per-component accuracy estimate, 16-bit fraction
}

// NewComposite wraps comps behind an arbiter. The name is the composite
// scheme's reporting name (registry-built instances use the full
// "hybrid:..." spec string). Panics on invalid configuration or an
// empty component list — both are caught by Parse for registry input.
func NewComposite(name string, comps []prefetch.Prefetcher, cfg Config) *Composite {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(comps) == 0 {
		panic("hybrid: composite needs at least one component")
	}
	if len(comps) > 255 {
		panic("hybrid: too many components")
	}
	c := &Composite{
		name:    name,
		cfg:     cfg,
		comps:   comps,
		labels:  componentLabels(comps),
		evict:   make([]prefetch.EvictionObserver, len(comps)),
		branch:  make([]prefetch.BranchObserver, len(comps)),
		mask:    uint64(cfg.TableEntries - 1),
		scratch: make([]isa.Line, 0, 32),
		compositeState: compositeState{
			pcTags:  make([]isa.Line, cfg.TableEntries),
			pcValid: make([]bool, cfg.TableEntries),
			credit:  make([][]uint8, len(comps)),
			attr:    linetab.New[uint32](2*cfg.OwnerEntries, cfg.OwnerEntries),
			shadow:  linetab.New[uint32](2*cfg.OwnerEntries, cfg.OwnerEntries),
			stats:   make([]compStats, len(comps)+1),
			ewma:    make([]uint32, len(comps)),
		},
	}
	for i, p := range comps {
		c.credit[i] = make([]uint8, cfg.TableEntries)
		c.ewma[i] = ewmaOne / 2
		if eo, ok := p.(prefetch.EvictionObserver); ok {
			c.evict[i] = eo
		}
		if bo, ok := p.(prefetch.BranchObserver); ok {
			c.branch[i] = bo
		}
	}
	return c
}

// componentLabels derives unique reporting names, suffixing repeats.
func componentLabels(comps []prefetch.Prefetcher) []string {
	labels := make([]string, len(comps))
	seen := map[string]int{}
	for i, p := range comps {
		l := p.Name()
		seen[l]++
		if n := seen[l]; n > 1 {
			l = fmt.Sprintf("%s#%d", l, n)
		}
		labels[i] = l
	}
	return labels
}

// Name implements Prefetcher.
func (c *Composite) Name() string { return c.name }

// Components returns the component reporting labels, in arbitration
// order (tests/diagnostics).
func (c *Composite) Components() []string {
	return append([]string(nil), c.labels...)
}

// Config returns the active arbitration configuration.
func (c *Composite) Config() Config { return c.cfg }

// AccuracyEstimate returns the arbiter's running accuracy EWMA for
// component i (diagnostics).
func (c *Composite) AccuracyEstimate(i int) float64 {
	return float64(c.ewma[i]) / ewmaOne
}

// pack encodes an owner as component index + arbitration slot.
func pack(comp int, slot uint64) uint32 {
	return uint32(comp)<<24 | uint32(slot)
}

func unpack(v uint32) (comp int, slot uint64) {
	return int(v >> 24), uint64(v & 0xffffff)
}

// pcSlot resolves the arbitration slot for a trigger line, (re)seeding
// the per-component credits when the slot changes hands.
func (c *Composite) pcSlot(l isa.Line) uint64 {
	h := uint64(l) & c.mask
	if !c.pcValid[h] || c.pcTags[h] != l {
		c.pcTags[h], c.pcValid[h] = l, true
		for i := range c.credit {
			c.credit[i][h] = c.cfg.CreditInit
		}
	}
	return h
}

// budget returns component i's per-fetch emission budget: halved while
// the accuracy EWMA says its issues mostly go unused.
func (c *Composite) budget(i int) int {
	b := c.cfg.PerFetchBudget
	if c.ewma[i] < ewmaLow && b > 1 {
		b /= 2
	}
	return b
}

// OnFetch implements Prefetcher: collect each component's candidates,
// clip them to the component's budget, and emit or shadow them
// according to the component's credit at this trigger PC.
func (c *Composite) OnFetch(ev prefetch.Event, out []isa.Line) []isa.Line {
	h := c.pcSlot(ev.Line)
	for i, p := range c.comps {
		cands := p.OnFetch(ev, c.scratch[:0])
		c.scratch = cands[:0]
		if len(cands) == 0 {
			continue
		}
		out = c.arbitrate(i, h, cands, out)
	}
	return out
}

// arbitrate routes one component's candidate batch: emit while the
// component holds credit at this PC slot, shadow otherwise.
//
// An owner record is never overwritten: the first proposer wins, which
// matters for attribution. The prefetch queue dedups candidates, so when
// two components propose the same line only the first proposal claims
// the queue slot and becomes the issued prefetch; a last-writer-wins
// record would credit the useful fill to a component whose proposal was
// discarded.
func (c *Composite) arbitrate(i int, slot uint64, cands []isa.Line, out []isa.Line) []isa.Line {
	st := &c.stats[i]
	st.generated += uint64(len(cands))
	if b := c.budget(i); len(cands) > b {
		st.clipped += uint64(len(cands) - b)
		cands = cands[:b]
	}
	owner := pack(i, slot)
	if c.credit[i][slot] > 0 {
		st.emitted += uint64(len(cands))
		for _, l := range cands {
			out = append(out, l)
			if o, ok := c.attr.Ref(l); !ok {
				*o = owner
			}
		}
	} else {
		st.suppressed += uint64(len(cands))
		for _, l := range cands {
			if o, ok := c.shadow.Ref(l); !ok {
				*o = owner
			}
		}
	}
	return out
}

// OnDiscontinuity implements Prefetcher: training signal for every
// component, gated nowhere — suppressed components keep learning.
func (c *Composite) OnDiscontinuity(trigger, target isa.Line, targetMissed bool) {
	for _, p := range c.comps {
		p.OnDiscontinuity(trigger, target, targetMissed)
	}
}

// OnBranch implements prefetch.BranchObserver, forwarding to the
// components that observe branches. Candidates are arbitrated under the
// followed line's PC slot.
func (c *Composite) OnBranch(takenLine, fallLine isa.Line, followedTaken bool, out []isa.Line) []isa.Line {
	followed := fallLine
	if followedTaken {
		followed = takenLine
	}
	h := c.pcSlot(followed)
	for i, bo := range c.branch {
		if bo == nil {
			continue
		}
		cands := bo.OnBranch(takenLine, fallLine, followedTaken, c.scratch[:0])
		c.scratch = cands[:0]
		if len(cands) == 0 {
			continue
		}
		out = c.arbitrate(i, h, cands, out)
	}
	return out
}

// OnPrefetchIssued implements prefetch.IssueObserver: the front-end
// issued a fill for line; charge it to the owning component, or to the
// unattributed bucket when the owner record is gone (table pressure).
func (c *Composite) OnPrefetchIssued(line isa.Line) {
	if v, ok := c.attr.Get(line); ok {
		comp, _ := unpack(v)
		c.stats[comp].issued++
		return
	}
	c.stats[len(c.comps)].issued++
}

// OnPrefetchUseful implements Prefetcher: credit the owner's counters,
// arbitration slot and accuracy estimate, and feed the useful signal to
// the component that produced the line. A shadow match additionally
// refunds credit to the suppressed proposer — the recovery path that
// keeps gating reversible.
func (c *Composite) OnPrefetchUseful(line isa.Line) {
	ownerComp := -1
	if v, ok := c.attr.Get(line); ok {
		comp, slot := unpack(v)
		ownerComp = comp
		st := &c.stats[comp]
		st.useful++
		c.bumpCredit(comp, slot)
		c.bumpEWMA(comp, true)
		c.comps[comp].OnPrefetchUseful(line)
	} else {
		c.stats[len(c.comps)].useful++
	}
	if v, ok := c.shadow.Get(line); ok {
		comp, slot := unpack(v)
		c.shadow.Delete(line)
		if comp != ownerComp {
			c.stats[comp].shadowUseful++
			c.bumpCredit(comp, slot)
			c.comps[comp].OnPrefetchUseful(line)
		}
	}
}

func (c *Composite) bumpCredit(comp int, slot uint64) {
	if c.credit[comp][slot] < c.cfg.CreditMax {
		c.credit[comp][slot]++
	}
}

// bumpEWMA nudges a component's accuracy estimate toward 1 (useful
// fill) or 0 (prefetch evicted unused).
func (c *Composite) bumpEWMA(comp int, useful bool) {
	e := c.ewma[comp]
	if useful {
		e += (ewmaOne - e) >> c.cfg.EWMAShift
	} else {
		e -= e >> c.cfg.EWMAShift
	}
	c.ewma[comp] = e
}

// OnL1Eviction implements prefetch.EvictionObserver: an owned prefetch
// leaving the cache unused is the arbiter's negative signal — the
// owner's credit at the proposing PC drops, as does its accuracy
// estimate. The eviction is then forwarded to observing components.
func (c *Composite) OnL1Eviction(line isa.Line, wasUsed bool) {
	if v, ok := c.attr.Get(line); ok {
		comp, slot := unpack(v)
		c.attr.Delete(line)
		if !wasUsed {
			if c.credit[comp][slot] > 0 {
				c.credit[comp][slot]--
			}
			c.bumpEWMA(comp, false)
		}
	}
	c.shadow.Delete(line)
	for _, eo := range c.evict {
		if eo != nil {
			eo.OnL1Eviction(line, wasUsed)
		}
	}
}

// ComponentCounters implements prefetch.ComponentReporter: one row per
// component in arbitration order, then the unattributed bucket.
func (c *Composite) ComponentCounters() []prefetch.ComponentCounters {
	out := make([]prefetch.ComponentCounters, 0, len(c.stats))
	for i, label := range c.labels {
		st := c.stats[i]
		out = append(out, prefetch.ComponentCounters{
			Name:          label,
			Generated:     st.generated,
			Emitted:       st.emitted,
			Suppressed:    st.suppressed,
			BudgetClipped: st.clipped,
			Issued:        st.issued,
			Useful:        st.useful,
			ShadowUseful:  st.shadowUseful,
		})
	}
	st := c.stats[len(c.comps)]
	out = append(out, prefetch.ComponentCounters{
		Name:   "unattributed",
		Issued: st.issued,
		Useful: st.useful,
	})
	return out
}

// Reset implements Prefetcher.
func (c *Composite) Reset() {
	for _, p := range c.comps {
		p.Reset()
	}
	clear(c.pcTags)
	clear(c.pcValid)
	for i := range c.credit {
		clear(c.credit[i])
		c.ewma[i] = ewmaOne / 2
	}
	c.attr.Reset()
	c.shadow.Reset()
	for i := range c.stats {
		c.stats[i] = compStats{}
	}
}
