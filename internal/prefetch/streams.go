package prefetch

import (
	"fmt"

	"repro/internal/isa"
)

// Streams approximates Jouppi-style instruction stream buffers within
// this simulator's prefetch framework: up to NStreams sequential streams
// are tracked concurrently; a miss that extends an active stream
// advances it (prefetching Depth lines ahead of its head), while a miss
// that matches no stream reallocates the least-recently-advanced one.
//
// Classic stream buffers hold their lines in FIFOs beside the cache; here
// fills go into the L1-I with prefetch tags, which the paper's own
// schemes also do, so the comparison isolates the *prediction* policy
// (multiple concurrent sequential streams vs a single next-N window).
// Included as a related-work baseline; the paper's next-N-line schemes
// are the degenerate single-stream case.
type Streams struct {
	nStreams int
	depth    int
	streamsState
}

// streamsState is a Streams prefetcher's dynamic state.
type streamsState struct {
	streams []stream
	tick    uint64
}

type stream struct {
	next    isa.Line // next line this stream would prefetch
	lastUse uint64
	valid   bool
}

// NewStreams builds a stream-buffer prefetcher with n concurrent streams
// each running depth lines ahead.
func NewStreams(n, depth int) *Streams {
	if n < 1 || depth < 1 {
		panic("prefetch: streams need n >= 1 and depth >= 1")
	}
	return &Streams{nStreams: n, depth: depth, streamsState: streamsState{streams: make([]stream, n)}}
}

// Name implements Prefetcher.
func (p *Streams) Name() string { return fmt.Sprintf("streams%dx%d", p.nStreams, p.depth) }

// OnFetch implements Prefetcher.
func (p *Streams) OnFetch(ev Event, out []isa.Line) []isa.Line {
	if !(ev.Miss || ev.PrefetchHit) {
		return out
	}
	p.tick++
	// Does this fetch extend an active stream? A stream whose window
	// [next-depth, next+1] covers the line claims it.
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		low := s.next - isa.Line(p.depth)
		if ev.Line >= low && ev.Line <= s.next {
			// Advance the stream to keep depth lines of runway past the
			// demand point.
			target := ev.Line + isa.Line(p.depth)
			for s.next <= target {
				out = append(out, s.next)
				s.next++
			}
			s.lastUse = p.tick
			return out
		}
	}
	// Allocate (or steal) a stream starting after the miss.
	victim := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lastUse < p.streams[victim].lastUse {
			victim = i
		}
	}
	s := &p.streams[victim]
	s.valid = true
	s.lastUse = p.tick
	s.next = ev.Line + 1
	for i := 0; i < p.depth; i++ {
		out = append(out, s.next)
		s.next++
	}
	return out
}

// OnDiscontinuity implements Prefetcher.
func (p *Streams) OnDiscontinuity(isa.Line, isa.Line, bool) {}

// OnPrefetchUseful implements Prefetcher.
func (p *Streams) OnPrefetchUseful(isa.Line) {}

// Reset implements Prefetcher.
func (p *Streams) Reset() {
	for i := range p.streams {
		p.streams[i] = stream{}
	}
	p.tick = 0
}

// ActiveStreams returns the number of live streams (tests/diagnostics).
func (p *Streams) ActiveStreams() int {
	n := 0
	for i := range p.streams {
		if p.streams[i].valid {
			n++
		}
	}
	return n
}
