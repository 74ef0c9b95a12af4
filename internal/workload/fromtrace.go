package workload

import (
	"fmt"

	"repro/internal/isa"
)

// ChunkedTrace is the random-access trace surface FromTrace replays:
// a chunked trace whose chunks decode independently. A corpus entry
// satisfies it. (The interface lives here, not a trace import, so
// package trace's tests may keep importing workload.)
type ChunkedTrace interface {
	NumChunks() int
	Blocks() uint64
	DecodeChunk(i int) ([]isa.Block, error)
}

// traceReplay replays a recorded container as an infinite Source,
// wrapping to the first chunk at the end of the trace (commercial
// server workloads are steady-state loops, so simulation budgets may
// exceed one recording pass).
//
// Decode runs one chunk ahead of the consumer: while chunk i is being
// consumed, a goroutine decodes chunk i+1 into a one-slot channel.
// Exactly one prefetch is outstanding at any time and the channel is
// buffered, so an abandoned replayer leaks nothing — the in-flight
// goroutine completes its send and exits.
type traceReplay struct {
	tr      ChunkedTrace
	cur     []isa.Block // chunk curIdx, decoded
	next    chan prefetched
	nextIdx int
	replayState
}

// replayState is a replayer's cursor: which chunk is current and how
// far into it the consumer has read.
type replayState struct {
	curIdx int
	pos    int
}

type prefetched struct {
	blocks []isa.Block
	err    error
}

// FromTrace returns a generator-contract Source (Next fills *b, runs
// forever, deterministic) replaying the recorded stream. Like
// Generator, a replayer is not safe for concurrent use; open one per
// core. Mid-replay decode failures panic, mirroring how a Generator
// cannot fail mid-stream — callers wanting errors should validate the
// container up front (corpus ingest does).
func FromTrace(tr ChunkedTrace) (Source, error) {
	if tr.NumChunks() == 0 || tr.Blocks() == 0 {
		return nil, fmt.Errorf("workload: empty trace (0 chunks)")
	}
	r := &traceReplay{tr: tr, next: make(chan prefetched, 1)}
	r.prefetch(0)
	if err := r.advance(); err != nil {
		return nil, err
	}
	return r, nil
}

// prefetch starts the decode of chunk i into the one-slot channel.
func (r *traceReplay) prefetch(i int) {
	r.nextIdx = i
	go func() {
		blocks, err := r.tr.DecodeChunk(i)
		r.next <- prefetched{blocks, err}
	}()
}

// advance installs the prefetched chunk as current and starts decoding
// the one after it (wrapping at the end of the container).
func (r *traceReplay) advance() error {
	p := <-r.next
	if p.err != nil {
		return p.err
	}
	r.cur, r.curIdx, r.pos = p.blocks, r.nextIdx, 0
	n := r.nextIdx + 1
	if n >= r.tr.NumChunks() {
		n = 0
	}
	r.prefetch(n)
	return nil
}

// Next implements Source.
func (r *traceReplay) Next(b *isa.Block) {
	for r.pos >= len(r.cur) {
		if err := r.advance(); err != nil {
			panic(fmt.Sprintf("workload: trace replay: %v", err))
		}
	}
	src := &r.cur[r.pos]
	r.pos++
	b.PC, b.NumInstrs, b.CTI, b.Target = src.PC, src.NumInstrs, src.CTI, src.Target
	b.MemOps = append(b.MemOps[:0], src.MemOps...)
}
