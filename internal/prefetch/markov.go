package prefetch

import (
	"fmt"

	"repro/internal/isa"
)

// Markov implements a Joseph & Grunwald-style Markov prefetcher [6] at
// cache-line granularity: a direct-mapped table records up to Ways
// distinct successor lines per line, replaced LRU-within-entry. On a
// triggering fetch, all recorded successors of the current line are
// prefetched.
//
// Compared to the paper's discontinuity prefetcher it spends table space
// on sequential transitions too and prefetches several alternatives per
// trigger, trading accuracy for coverage of multi-target transitions.
// It is included as a related-work baseline (paper Section 2.2).
type Markov struct {
	mask uint64
	ways int
	markovState
}

// markovState is a Markov prefetcher's dynamic state.
type markovState struct {
	entries []mentry
	last    isa.Line
	started bool
}

type mentry struct {
	line  isa.Line
	succ  []isa.Line // MRU first
	valid bool
}

// NewMarkov builds a Markov prefetcher with the given table size (power
// of two) and successors per entry.
func NewMarkov(tableEntries, ways int) *Markov {
	if tableEntries <= 0 || tableEntries&(tableEntries-1) != 0 {
		panic("prefetch: markov table entries must be a positive power of two")
	}
	if ways < 1 {
		panic("prefetch: markov ways must be >= 1")
	}
	m := &Markov{
		mask:        uint64(tableEntries - 1),
		ways:        ways,
		markovState: markovState{entries: make([]mentry, tableEntries)},
	}
	for i := range m.entries {
		m.entries[i].succ = make([]isa.Line, 0, ways)
	}
	return m
}

// Name implements Prefetcher.
func (p *Markov) Name() string { return fmt.Sprintf("markov%dx%d", len(p.entries), p.ways) }

// OnFetch implements Prefetcher: train on every transition, predict on
// misses and prefetch-tag hits.
func (p *Markov) OnFetch(ev Event, out []isa.Line) []isa.Line {
	if p.started && p.last != ev.Line {
		p.train(p.last, ev.Line)
	}
	p.last = ev.Line
	p.started = true

	if !(ev.Miss || ev.PrefetchHit) {
		return out
	}
	e := &p.entries[uint64(ev.Line)&p.mask]
	if e.valid && e.line == ev.Line {
		out = append(out, e.succ...)
	}
	return out
}

func (p *Markov) train(from, to isa.Line) {
	e := &p.entries[uint64(from)&p.mask]
	if !e.valid || e.line != from {
		e.line = from
		e.valid = true
		e.succ = e.succ[:0]
	}
	// Move-to-front if present.
	for i, s := range e.succ {
		if s == to {
			copy(e.succ[1:i+1], e.succ[0:i])
			e.succ[0] = to
			return
		}
	}
	if len(e.succ) < p.ways {
		e.succ = append(e.succ, 0)
	}
	copy(e.succ[1:], e.succ[0:len(e.succ)-1])
	e.succ[0] = to
}

// OnDiscontinuity implements Prefetcher (training happens in OnFetch).
func (p *Markov) OnDiscontinuity(isa.Line, isa.Line, bool) {}

// OnPrefetchUseful implements Prefetcher.
func (p *Markov) OnPrefetchUseful(isa.Line) {}

// Reset implements Prefetcher.
func (p *Markov) Reset() {
	for i := range p.entries {
		p.entries[i].valid = false
		p.entries[i].succ = p.entries[i].succ[:0]
	}
	p.started = false
	p.last = 0
}
