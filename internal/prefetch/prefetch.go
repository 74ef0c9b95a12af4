// Package prefetch implements the hardware instruction prefetchers the
// paper studies: the sequential family (next-line always / on-miss /
// tagged, next-N-line tagged, lookahead-N), a classic history-based
// target prefetcher, and the paper's contribution — the discontinuity
// prefetcher of Section 4 paired with a next-N-line sequential component.
//
// Prefetchers are pure prediction engines: they observe the demand fetch
// stream (per cache line) and emit prefetch *candidates*. Queueing,
// filtering, tag probing and installation policy live in internal/core.
package prefetch

import (
	"fmt"

	"repro/internal/isa"
)

// Event describes one demand line fetch, as seen by the prefetcher.
type Event struct {
	// Line is the demand-fetched cache line.
	Line isa.Line
	// Miss reports whether the access missed the L1 instruction cache.
	Miss bool
	// PrefetchHit reports whether the access was the first demand use of
	// a previously prefetched line (the "tag" of tagged schemes).
	PrefetchHit bool
}

// Prefetcher is a hardware instruction-prefetch prediction engine.
// Implementations must be deterministic and are not safe for concurrent
// use (each simulated core owns one).
type Prefetcher interface {
	// Name identifies the scheme in reports.
	Name() string
	// OnFetch observes one demand line fetch and appends prefetch
	// candidates to out, returning the extended slice. Candidate order
	// is the desired issue order (most useful first).
	OnFetch(ev Event, out []isa.Line) []isa.Line
	// OnDiscontinuity observes a non-sequential transition in the fetch
	// stream: trigger is the line of the last instruction before the
	// transition, target the line fetch moved to, and targetMissed
	// whether the target access missed L1-I. The front-end only reports
	// cross-line transitions.
	OnDiscontinuity(trigger, target isa.Line, targetMissed bool)
	// OnPrefetchUseful reports the first demand use of a prefetched
	// line, letting history-based schemes credit their predictions.
	OnPrefetchUseful(line isa.Line)
	// Reset clears dynamic state.
	Reset()
	// SnapshotState returns a deep copy of the scheme's dynamic state,
	// or nil for a stateless scheme. The state is opaque to callers and
	// immutable once taken, so one snapshot can seed any number of
	// identically-configured schemes: fork-and-diverge sweeps replay one
	// shared warm-up into many measurement machines this way.
	SnapshotState() any
	// RestoreState overwrites the scheme's dynamic state with a copy of
	// a state captured from an identically-configured scheme. Restoring
	// across configurations is an error, never a silent truncation.
	RestoreState(state any) error
}

// Stateless is embedded by the schemes that keep no dynamic state: they
// learn nothing from discontinuities or useful prefetches, Reset does
// nothing, a snapshot is nil and only nil restores.
type Stateless struct{}

// OnDiscontinuity implements Prefetcher.
func (Stateless) OnDiscontinuity(isa.Line, isa.Line, bool) {}

// OnPrefetchUseful implements Prefetcher.
func (Stateless) OnPrefetchUseful(isa.Line) {}

// Reset implements Prefetcher.
func (Stateless) Reset() {}

// SnapshotState implements Prefetcher.
func (Stateless) SnapshotState() any { return nil }

// RestoreState implements Prefetcher.
func (Stateless) RestoreState(state any) error {
	if state != nil {
		return fmt.Errorf("prefetch: stateless scheme restored from %T", state)
	}
	return nil
}

// None is the no-prefetch baseline.
type None struct{ Stateless }

// NewNone returns the baseline no-op prefetcher.
func NewNone() *None { return &None{} }

// Name implements Prefetcher.
func (*None) Name() string { return "none" }

// OnFetch implements Prefetcher: no candidates, out returned untouched
// so callers keep their preallocated buffer.
func (*None) OnFetch(_ Event, out []isa.Line) []isa.Line { return out }

// Trigger selects when a sequential prefetcher fires.
type Trigger uint8

const (
	// TriggerAlways fires on every demand fetch.
	TriggerAlways Trigger = iota
	// TriggerOnMiss fires only on demand misses.
	TriggerOnMiss
	// TriggerTagged fires on demand misses and on the first use of a
	// prefetched line (Smith's tagged prefetch).
	TriggerTagged
)

func (t Trigger) fires(ev Event) bool {
	switch t {
	case TriggerAlways:
		return true
	case TriggerOnMiss:
		return ev.Miss
	default:
		return ev.Miss || ev.PrefetchHit
	}
}

// NextN is the sequential prefetcher family: on a triggering fetch of
// line L it emits L+1 … L+Degree.
type NextN struct {
	Stateless
	name    string
	trigger Trigger
	degree  int
}

// NewNextLineAlways returns a next-line-always prefetcher.
func NewNextLineAlways() *NextN {
	return &NextN{name: "nl-always", trigger: TriggerAlways, degree: 1}
}

// NewNextLineOnMiss returns a next-line-on-miss prefetcher.
func NewNextLineOnMiss() *NextN {
	return &NextN{name: "nl-miss", trigger: TriggerOnMiss, degree: 1}
}

// NewNextLineTagged returns a next-line tagged prefetcher.
func NewNextLineTagged() *NextN {
	return &NextN{name: "nl-tagged", trigger: TriggerTagged, degree: 1}
}

// NewNextNTagged returns a next-N-line tagged prefetcher (the paper's
// next-4-lines when n == 4).
func NewNextNTagged(n int) *NextN {
	if n < 1 {
		panic("prefetch: next-N degree must be >= 1")
	}
	return &NextN{name: fmt.Sprintf("n%dl-tagged", n), trigger: TriggerTagged, degree: n}
}

// Name implements Prefetcher.
func (p *NextN) Name() string { return p.name }

// Degree returns the prefetch-ahead distance.
func (p *NextN) Degree() int { return p.degree }

// OnFetch implements Prefetcher.
func (p *NextN) OnFetch(ev Event, out []isa.Line) []isa.Line {
	if !p.trigger.fires(ev) {
		return out
	}
	for i := 1; i <= p.degree; i++ {
		out = append(out, ev.Line+isa.Line(i))
	}
	return out
}

// Lookahead prefetches only the single line N ahead of a triggering
// fetch (Han et al.'s improved-lookahead scheme): better timeliness than
// next-line without N-per-trigger bandwidth, but gaps at control
// transfers.
type Lookahead struct {
	Stateless
	distance int
}

// NewLookahead returns a lookahead-N prefetcher.
func NewLookahead(n int) *Lookahead {
	if n < 1 {
		panic("prefetch: lookahead distance must be >= 1")
	}
	return &Lookahead{distance: n}
}

// Name implements Prefetcher.
func (p *Lookahead) Name() string { return fmt.Sprintf("lookahead%d", p.distance) }

// OnFetch implements Prefetcher.
func (p *Lookahead) OnFetch(ev Event, out []isa.Line) []isa.Line {
	if !(ev.Miss || ev.PrefetchHit) {
		return out
	}
	return append(out, ev.Line+isa.Line(p.distance))
}
