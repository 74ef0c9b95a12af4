package prefetch

import (
	"fmt"

	"repro/internal/isa"
)

// Target is a classic history-based target prefetcher (Smith & Hsu): a
// direct-mapped table records, for every line, the line the fetch stream
// moved to last time — sequential or not. On a triggering fetch the
// current line's recorded successor (and its successor, up to Depth) is
// prefetched.
//
// It serves as a related-work baseline: unlike the discontinuity
// prefetcher it spends table capacity on sequential transitions too, so
// for a given table size it covers less of the non-sequential miss
// stream.
type Target struct {
	mask  uint64
	depth int
	targetState
}

// targetState is a Target prefetcher's dynamic state.
type targetState struct {
	entries []tentry
	last    isa.Line
	started bool
}

type tentry struct {
	line  isa.Line
	next  isa.Line
	valid bool
}

// NewTarget builds a target prefetcher with the given table size
// (power of two) and chain depth (lines prefetched per trigger).
func NewTarget(tableEntries, depth int) *Target {
	if tableEntries <= 0 || tableEntries&(tableEntries-1) != 0 {
		panic("prefetch: target table entries must be a positive power of two")
	}
	if depth < 1 {
		panic("prefetch: target depth must be >= 1")
	}
	return &Target{
		mask:        uint64(tableEntries - 1),
		depth:       depth,
		targetState: targetState{entries: make([]tentry, tableEntries)},
	}
}

// Name implements Prefetcher.
func (p *Target) Name() string { return fmt.Sprintf("target%d", len(p.entries)) }

// OnFetch implements Prefetcher. Every line transition (including
// sequential) trains the table; misses and prefetch-tag hits trigger
// prediction chains.
func (p *Target) OnFetch(ev Event, out []isa.Line) []isa.Line {
	if p.started && p.last != ev.Line {
		e := &p.entries[uint64(p.last)&p.mask]
		*e = tentry{line: p.last, next: ev.Line, valid: true}
	}
	p.last = ev.Line
	p.started = true

	if !(ev.Miss || ev.PrefetchHit) {
		return out
	}
	cur := ev.Line
	for i := 0; i < p.depth; i++ {
		e := &p.entries[uint64(cur)&p.mask]
		if !e.valid || e.line != cur {
			break
		}
		out = append(out, e.next)
		cur = e.next
	}
	return out
}

// OnDiscontinuity implements Prefetcher (training happens in OnFetch).
func (p *Target) OnDiscontinuity(isa.Line, isa.Line, bool) {}

// OnPrefetchUseful implements Prefetcher.
func (p *Target) OnPrefetchUseful(isa.Line) {}

// Reset implements Prefetcher.
func (p *Target) Reset() {
	for i := range p.entries {
		p.entries[i] = tentry{}
	}
	p.last = 0
	p.started = false
}
