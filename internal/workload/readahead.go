package workload

import (
	"fmt"

	"repro/internal/isa"
)

// producer makes a block stream one batch at a time, for a readAhead
// cursor. Its position in the stream (a chunk index, a generator
// state) is a K.
type producer[K any] interface {
	// seek moves the producer to the position *at.
	seek(at *K)
	// fill makes the batch that starts at the producer's position into
	// b, reusing b's buffers where it can, records that position in
	// b.at and moves past the batch.
	fill(b *batch[K])
}

// batch is a run of consecutive blocks of a stream and the position it
// starts at.
type batch[K any] struct {
	at     K
	blocks []isa.Block
	memOps []isa.MemOp // arena behind the blocks' MemOps, if the producer reuses one
	err    error
}

// handoff is a finished batch and its producer, which travels with the
// batch in flight: the consumer holds it only while no batch is made.
type handoff[K any] struct {
	b *batch[K]
	p producer[K]
}

// readAhead is a Source cursor that runs its producer one batch ahead
// of the consumer: while batch i is consumed, a goroutine makes batch
// i+1 and sends it into a one-slot channel. Exactly one batch is in
// flight at any time and the channel is buffered, so an abandoned
// cursor leaks nothing: the in-flight goroutine completes its send and
// exits. Two batch buffers alternate, so a producer that reuses them
// makes its steady state allocation-free. Not safe for concurrent use.
type readAhead[K any] struct {
	cur  *batch[K] // the batch at aheadState.at; nil before the first arrives
	next chan handoff[K]
	aheadState[K]
}

// aheadState is a cursor's position: the batch it is in and how far
// into it the consumer has read. It is the whole snapshot of a cursor.
type aheadState[K any] struct {
	at  K
	pos int
}

// start begins reading ahead from p, whose position the caller has set
// in r.at.
func (r *readAhead[K]) start(p producer[K]) {
	r.next = make(chan handoff[K], 1)
	r.launch(p, nil)
}

// launch makes p's next batch into b (a new buffer when b is nil) on a
// goroutine of its own.
func (r *readAhead[K]) launch(p producer[K], b *batch[K]) {
	if b == nil {
		b = new(batch[K])
	}
	next := r.next
	go func() {
		p.fill(b)
		next <- handoff[K]{b, p}
	}()
}

// install makes h's batch current, pos blocks into it, and starts the
// batch after it in the buffer of the one it replaces.
func (r *readAhead[K]) install(h handoff[K], pos int) {
	spare := r.cur
	// r.at shares the batch's memory, which stays unchanged until the
	// batch is replaced.
	r.cur, r.at, r.pos = h.b, h.b.at, pos
	r.launch(h.p, spare)
}

// advance waits for the batch in flight and makes it current.
func (r *readAhead[K]) advance() error {
	h := <-r.next
	if h.b.err != nil {
		return h.b.err
	}
	r.install(h, 0)
	return nil
}

// restore moves the cursor to position at, pos blocks into that batch:
// it takes the producer back from the batch in flight, makes the batch
// at *at synchronously and reads ahead from there. On error the cursor
// is left unusable.
func (r *readAhead[K]) restore(at *K, pos int) error {
	h := <-r.next
	h.p.seek(at)
	h.p.fill(h.b)
	if h.b.err != nil {
		return h.b.err
	}
	r.install(h, pos)
	return nil
}

// Next implements Source: it copies the next block into *b, reusing
// b.MemOps.
func (r *readAhead[K]) Next(b *isa.Block) {
	for r.cur == nil || r.pos >= len(r.cur.blocks) {
		if err := r.advance(); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	}
	src := &r.cur.blocks[r.pos]
	r.pos++
	b.PC, b.NumInstrs, b.CTI, b.Target = src.PC, src.NumInstrs, src.CTI, src.Target
	b.MemOps = append(b.MemOps[:0], src.MemOps...)
}

// batchBlocks is how many blocks a generator makes per read-ahead
// batch: enough that the goroutine hand-off is a small share of the
// batch's cost, few enough that a restore, which makes one batch
// synchronously, stays cheap.
const batchBlocks = 256

// generatorAhead is a Generator read one batch ahead (see ReadAhead).
type generatorAhead struct {
	asid uint64
	readAhead[generatorState]
}

// ReadAhead returns a Source that yields g's stream, generating it
// batchBlocks blocks at a time one batch ahead of the consumer on a
// helper goroutine. The source owns g from then on: g must not be used
// again. A machine wraps its generators this way, so generation runs
// beside the simulation.
func ReadAhead(g *Generator) Source {
	r := &generatorAhead{asid: g.prog.ASID}
	r.at.set(&g.generatorState)
	r.start(g)
	return r
}

// seek implements producer.
func (g *Generator) seek(at *generatorState) { g.set(at) }

// fill implements producer: it generates batchBlocks blocks into b,
// their MemOps packed into b's arena.
func (g *Generator) fill(b *batch[generatorState]) {
	b.at.set(&g.generatorState)
	if b.blocks == nil {
		b.blocks = make([]isa.Block, batchBlocks)
	}
	ops := b.memOps[:0]
	for i := range b.blocks {
		blk := &b.blocks[i]
		n := len(ops)
		blk.MemOps = ops[n:n]
		g.Next(blk)
		if k := len(blk.MemOps); cap(blk.MemOps) == cap(ops)-n {
			ops = ops[:n+k] // generated in the arena's spare room
		} else {
			// The arena was full. Blocks before this one keep the
			// old array, which stays intact.
			ops = append(ops, blk.MemOps...)
		}
		blk.MemOps = ops[n:len(ops):len(ops)]
	}
	b.memOps = ops
}

// chunkProducer makes a recorded trace's chunks in order, wrapping to
// the first after the last.
type chunkProducer struct {
	tr  ChunkedTrace
	idx int
}

func (c *chunkProducer) seek(at *int) { c.idx = *at }

func (c *chunkProducer) fill(b *batch[int]) {
	b.at = c.idx
	b.blocks, b.err = c.tr.DecodeChunk(c.idx)
	if b.err != nil {
		b.err = fmt.Errorf("trace replay: chunk %d: %w", c.idx, b.err)
	}
	if c.idx++; c.idx == c.tr.NumChunks() {
		c.idx = 0
	}
}
