package trace

// Chunk files: the one encoding of a record stream. A chunk file holds
// one content-defined chunk (see chunker.go):
//
//	chunk file: codec byte | rawLen uvarint | encLen uvarint | payload
//
// A chunk's logical content is its "self-based" record bytes: the
// record encoding of trace.go with the delta base starting at zero, so
// the first record carries the absolute PC and the chunk decodes
// without outside context. rawLen is their length. The corpus names a
// chunk by their SHA-256, which does not depend on the codec.
//
// The payload is flate over a columnar transform of the records (codec
// 1): the interleaved record fields regrouped into homogeneous streams
// (all PC deltas, then instruction counts, CTI kinds, branch target
// deltas, memop counts, memop address deltas, memop kinds), preceded by
// the record count. Fetch-line deltas are near-monotonic and small, so
// each stream is far more self-similar than the interleaving, and
// flate's matches get longer. encLen is the transform's length, the
// exact inflate target. Codec 0, flate over the record bytes as they
// are, is only decoded: corpus stores written before codec 1 became
// the only encoding still hold such files.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

const (
	codecFlate    byte = 0
	codecColumnar byte = 1

	// flateLevel trades encode speed for storage density; a chunk is
	// written once and replayed many times.
	flateLevel = flate.DefaultCompression

	// maxInflateRatio bounds an inflate target by its input: deflate
	// never expands more than 1032:1, so a larger claim is corrupt and
	// must not be allocated.
	maxInflateRatio = 1032
)

// RawRecords returns the self-based record encoding of blocks — the
// canonical chunk content the corpus hashes.
func RawRecords(blocks []isa.Block) []byte {
	var buf bytes.Buffer
	scratch := make([]byte, binary.MaxVarintLen64)
	var prevNext isa.Addr
	for i := range blocks {
		prevNext = EncodeRecord(&buf, scratch, prevNext, &blocks[i])
	}
	return buf.Bytes()
}

// Columns of the columnar transform, in payload order.
const (
	colPC = iota
	colLen
	colCTI
	colTarget
	colOpCount
	colOpDelta
	colOpKind
	numCols
)

// ChunkBuilder accumulates a block stream one chunk at a time. It keeps
// the chunk's self-based record bytes (for hashing), their columnar
// transform (for encoding) and the content-defined cut signal, so a
// chunk is encoded without keeping copies of its blocks. WriterV2 and
// corpus ingest share it, which is why a container's frames are the
// chunks the corpus stores.
type ChunkBuilder struct {
	cut      alignedChunker
	raw      bytes.Buffer
	cols     [numCols]bytes.Buffer
	recs     int
	instrs   uint64
	prevNext isa.Addr
	scratch  [binary.MaxVarintLen64]byte

	comp *flate.Writer
	out  bytes.Buffer
}

// NewChunkBuilder returns a builder cutting at DefaultChunker's
// boundaries.
func NewChunkBuilder() *ChunkBuilder {
	return &ChunkBuilder{cut: alignedChunker{cfg: DefaultChunker()}}
}

// Add appends one valid block and reports whether the chunk has reached
// a content-defined boundary; the caller then takes the chunk and calls
// Reset.
func (c *ChunkBuilder) Add(b *isa.Block) bool {
	start := c.raw.Len()
	pcDelta := int64(b.PC) - int64(c.prevNext)
	c.prevNext = EncodeRecord(&c.raw, c.scratch[:], c.prevNext, b)
	c.cut.feed(c.raw.Bytes()[start:])

	putSvarint(&c.cols[colPC], c.scratch[:], pcDelta)
	putUvarint(&c.cols[colLen], c.scratch[:], uint64(b.NumInstrs))
	c.cols[colCTI].WriteByte(byte(b.CTI))
	if b.CTI.ChangesFlow() {
		putSvarint(&c.cols[colTarget], c.scratch[:], int64(b.Target)-int64(b.End()))
	}
	putUvarint(&c.cols[colOpCount], c.scratch[:], uint64(len(b.MemOps)))
	prev := b.PC
	for _, m := range b.MemOps {
		putSvarint(&c.cols[colOpDelta], c.scratch[:], int64(m.Addr)-int64(prev))
		c.cols[colOpKind].WriteByte(byte(m.Kind))
		prev = m.Addr
	}
	c.recs++
	c.instrs += uint64(b.NumInstrs)
	return c.cut.shouldCut()
}

// Records returns the number of blocks in the current chunk.
func (c *ChunkBuilder) Records() int { return c.recs }

// Instrs returns the number of instructions in the current chunk.
func (c *ChunkBuilder) Instrs() uint64 { return c.instrs }

// Raw returns the current chunk's self-based record bytes, valid until
// the next Add or Reset.
func (c *ChunkBuilder) Raw() []byte { return c.raw.Bytes() }

// Encode returns the current chunk's chunk file. same, if non-nil, is a
// chunk file already known to decode to exactly the current chunk's
// blocks (an input frame covering the same records); it is returned
// as it is when it uses the current codec and its header agrees, so a
// chunk that arrives encoded is not compressed again.
func (c *ChunkBuilder) Encode(same []byte) ([]byte, error) {
	if same != nil {
		if codec, rawLen, _, _, err := parseChunkFile(same); err == nil &&
			codec == codecColumnar && rawLen == c.raw.Len() {
			return same, nil
		}
	}
	if c.comp == nil {
		comp, err := flate.NewWriter(io.Discard, flateLevel)
		if err != nil {
			return nil, err
		}
		c.comp = comp
	}
	c.out.Reset()
	c.comp.Reset(&c.out)
	n := binary.PutUvarint(c.scratch[:], uint64(c.recs))
	encLen := n
	if _, err := c.comp.Write(c.scratch[:n]); err != nil {
		return nil, err
	}
	for i := range c.cols {
		encLen += c.cols[i].Len()
		if _, err := c.comp.Write(c.cols[i].Bytes()); err != nil {
			return nil, err
		}
	}
	if err := c.comp.Close(); err != nil {
		return nil, err
	}
	return chunkFileBytes(codecColumnar, c.raw.Len(), encLen, c.out.Bytes()), nil
}

// Reset starts a new chunk.
func (c *ChunkBuilder) Reset() {
	c.raw.Reset()
	for i := range c.cols {
		c.cols[i].Reset()
	}
	c.recs, c.instrs, c.prevNext = 0, 0, 0
	c.cut.cut()
}

// chunkFileBytes frames a payload as a chunk file.
func chunkFileBytes(codec byte, rawLen, encLen int, payload []byte) []byte {
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = codec
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(rawLen))
	n += binary.PutUvarint(hdr[n:], uint64(encLen))
	out := make([]byte, 0, n+len(payload))
	out = append(out, hdr[:n]...)
	return append(out, payload...)
}

func parseChunkFile(file []byte) (codec byte, rawLen, encLen int, payload []byte, err error) {
	r := bytes.NewReader(file)
	c, err := r.ReadByte()
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("chunk file truncated")
	}
	rl, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("chunk file header: %w", err)
	}
	el, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("chunk file header: %w", err)
	}
	if rl > maxChunkBytes || el > maxChunkBytes {
		return 0, 0, 0, nil, fmt.Errorf("chunk file header: implausible lengths %d/%d", rl, el)
	}
	return c, int(rl), int(el), file[len(file)-r.Len():], nil
}

// DecodeChunkFile decodes a chunk file and returns its blocks and the
// raw length its header declares. The result is untrusted until the
// caller checks the chunk's hash against RawRecords of the blocks (and
// their length against rawLen).
func DecodeChunkFile(file []byte) (blocks []isa.Block, rawLen int, err error) {
	codec, rawLen, encLen, payload, err := parseChunkFile(file)
	if err != nil {
		return nil, 0, err
	}
	if codec != codecFlate && codec != codecColumnar {
		return nil, 0, fmt.Errorf("unknown chunk codec %d", codec)
	}
	plain, err := inflate(payload, encLen, nil)
	if err != nil {
		return nil, 0, err
	}
	if codec == codecFlate {
		blocks, err = decodeRecords(plain, 0)
	} else {
		blocks, err = columnarDecode(plain)
	}
	return blocks, rawLen, err
}

// inflate decompresses comp into a buffer of exactly rawLen bytes
// (reusing dst's capacity), rejecting payloads that are shorter or
// longer than declared.
func inflate(comp []byte, rawLen int, dst []byte) ([]byte, error) {
	if rawLen < 0 || rawLen > maxChunkBytes || rawLen/maxInflateRatio > len(comp) {
		return dst, fmt.Errorf("implausible length %d for %d compressed bytes: %w", rawLen, len(comp), ErrCorrupt)
	}
	if cap(dst) < rawLen {
		dst = make([]byte, rawLen)
	} else {
		dst = dst[:rawLen]
	}
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close()
	if _, err := io.ReadFull(fr, dst); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return dst, fmt.Errorf("payload shorter than declared %d bytes: %w", rawLen, ErrCorrupt)
		}
		return dst, fmt.Errorf("decompress: %w", err)
	}
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || err != io.EOF {
		return dst, fmt.Errorf("payload longer than declared %d bytes: %w", rawLen, ErrCorrupt)
	}
	return dst, nil
}

// decodeRecords decodes a whole buffer of records, delta-based from
// base, validating every block.
func decodeRecords(raw []byte, base isa.Addr) ([]isa.Block, error) {
	r := bytes.NewReader(raw)
	var blocks []isa.Block
	for {
		if len(blocks) >= maxChunkRecords {
			return nil, fmt.Errorf("chunk exceeds %d records: %w", maxChunkRecords, ErrCorrupt)
		}
		var b isa.Block
		err := readRecord(r, &base, uint64(len(blocks)), &b)
		if err == io.EOF {
			return blocks, nil
		}
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
	}
}

// columnarDecode inverts the columnar transform, validating every block
// with the same checks the record decoder applies. Columns are parsed
// into flat slices first (the pc-delta base is the previous block's
// NextPC, which needs fields from later columns), then blocks are
// assembled in one pass. Every allocation is bounded by the plaintext
// left to read — a record needs at least 4 bytes and a memop 2 — so a
// small crafted payload cannot claim a huge stream.
func columnarDecode(plain []byte) ([]isa.Block, error) {
	r := bytes.NewReader(plain)
	colErr := func(col string, err error) error {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("columnar chunk: %s column: %w", col, err)
	}
	nrecs, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("columnar chunk: %w", err)
	}
	if nrecs > maxChunkRecords || nrecs > uint64(r.Len()/4) {
		return nil, fmt.Errorf("columnar chunk: implausible record count %d for %d bytes: %w", nrecs, r.Len(), ErrCorrupt)
	}
	n := int(nrecs)
	pcDeltas := make([]int64, n)
	for i := range pcDeltas {
		if pcDeltas[i], err = binary.ReadVarint(r); err != nil {
			return nil, colErr("pc", err)
		}
	}
	lens := make([]uint64, n)
	for i := range lens {
		if lens[i], err = binary.ReadUvarint(r); err != nil {
			return nil, colErr("len", err)
		}
	}
	ctis := make([]byte, n)
	if _, err := io.ReadFull(r, ctis); err != nil {
		return nil, colErr("cti", err)
	}
	flowChanging := 0
	for i, c := range ctis {
		if int(c) >= isa.NumCTIKinds {
			return nil, fmt.Errorf("columnar chunk: block %d: invalid CTI %d", i, c)
		}
		if isa.CTIKind(c).ChangesFlow() {
			flowChanging++
		}
	}
	targetDeltas := make([]int64, flowChanging)
	for i := range targetDeltas {
		if targetDeltas[i], err = binary.ReadVarint(r); err != nil {
			return nil, colErr("target", err)
		}
	}
	opCounts := make([]int, n)
	totalOps := 0
	for i := range opCounts {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, colErr("memop count", err)
		}
		if v > 1<<16 {
			return nil, fmt.Errorf("columnar chunk: block %d: implausible memop count %d", i, v)
		}
		opCounts[i] = int(v)
		totalOps += int(v)
		if totalOps > r.Len()/2 {
			return nil, fmt.Errorf("columnar chunk: block %d: %d memops exceed the %d bytes left: %w",
				i, totalOps, r.Len(), ErrCorrupt)
		}
	}
	opDeltas := make([]int64, totalOps)
	for i := range opDeltas {
		if opDeltas[i], err = binary.ReadVarint(r); err != nil {
			return nil, colErr("memop delta", err)
		}
	}
	kinds := make([]byte, totalOps)
	if _, err := io.ReadFull(r, kinds); err != nil {
		return nil, colErr("memop kind", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("columnar chunk: %d trailing bytes", r.Len())
	}
	blocks := make([]isa.Block, n)
	var prevNext isa.Addr
	tgt, op := 0, 0
	for i := range blocks {
		b := &blocks[i]
		b.PC = isa.Addr(int64(prevNext) + pcDeltas[i])
		b.NumInstrs = int(lens[i])
		b.CTI = isa.CTIKind(ctis[i])
		if b.CTI.ChangesFlow() {
			b.Target = isa.Addr(int64(b.End()) + targetDeltas[tgt])
			tgt++
		}
		if opCounts[i] > 0 {
			b.MemOps = make([]isa.MemOp, opCounts[i])
			prev := b.PC
			for j := range b.MemOps {
				if kinds[op] > byte(isa.MemStore) {
					return nil, fmt.Errorf("columnar chunk: block %d: invalid memop kind %d", i, kinds[op])
				}
				addr := isa.Addr(int64(prev) + opDeltas[op])
				b.MemOps[j] = isa.MemOp{Addr: addr, Kind: isa.MemKind(kinds[op])}
				prev = addr
				op++
			}
		}
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("columnar chunk: block %d: %w", i, err)
		}
		prevNext = b.NextPC()
	}
	return blocks, nil
}
