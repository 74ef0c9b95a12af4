package prefetch

import "repro/internal/isa"

// EvictionObserver is an optional extension of Prefetcher: schemes that
// track per-line state (e.g. confidence counters) implement it to learn
// about L1 instruction-cache evictions.
type EvictionObserver interface {
	// OnL1Eviction reports that line was evicted from the L1-I, and
	// whether it had been demand-used since fill.
	OnL1Eviction(line isa.Line, wasUsed bool)
}

// BranchObserver is an optional extension of Prefetcher: schemes that
// want to see resolved conditional branches (both the followed and the
// not-followed path) implement it, and the front-end feeds them every
// conditional block terminator.
type BranchObserver interface {
	// OnBranch reports a resolved conditional branch: the line holding
	// the taken-path target and the line holding the fall-through.
	// followedTaken says which way execution actually went. Candidates
	// are appended to out.
	OnBranch(takenLine, fallLine isa.Line, followedTaken bool, out []isa.Line) []isa.Line
}

// WrongPath implements Pierce & Mudge's wrong-path prefetching [12] on
// top of a next-line-tagged sequential base: whenever a conditional
// branch resolves, the line of the path NOT followed is prefetched. The
// insight is that for many branches both outcomes occur close together
// in time, so fetching the wrong path now is an effective prefetch for
// its imminent use.
//
// It is included as a related-work baseline; the paper discusses it in
// Section 2.3 but does not evaluate it.
type WrongPath struct {
	Stateless
	seq *NextN
}

// NewWrongPath builds the scheme.
func NewWrongPath() *WrongPath {
	return &WrongPath{seq: NewNextLineTagged()}
}

// Name implements Prefetcher.
func (p *WrongPath) Name() string { return "wrong-path" }

// OnFetch implements Prefetcher (sequential base component).
func (p *WrongPath) OnFetch(ev Event, out []isa.Line) []isa.Line {
	return p.seq.OnFetch(ev, out)
}

// OnBranch implements BranchObserver: prefetch the path not taken.
func (p *WrongPath) OnBranch(takenLine, fallLine isa.Line, followedTaken bool, out []isa.Line) []isa.Line {
	if followedTaken {
		return append(out, fallLine)
	}
	return append(out, takenLine)
}
