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
// exceed one recording pass). Decode runs one chunk ahead of the
// consumer (see readAhead).
type traceReplay struct {
	chunks int
	readAhead[int]
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
	r := &traceReplay{chunks: tr.NumChunks()} // at chunk 0
	r.start(&chunkProducer{tr: tr})
	if err := r.advance(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return r, nil
}
