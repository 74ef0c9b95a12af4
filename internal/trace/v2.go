package trace

// The IPFTRC02 container frames chunk files so a stream is compact,
// verifiable and cut where the corpus cuts it:
//
//	container: header | frame* | index | footer
//	header:    magic "IPFTRC02" | name len varint | name | asid varint
//	frame:     0x02 | records varint | instrs varint | fileLen varint
//	           | crc32(file) u32le | file (one chunk file, see chunkfile.go)
//	index:     0x00 | numChunks varint | per frame:
//	           offset varint | records varint | instrs varint
//	           | startNext varint | fileLen varint
//	footer:    index offset u64le | crc32(index) u32le | "IPFTEND2"
//
// WriterV2 cuts frames at content-defined boundaries, so every frame is
// a chunk the corpus stores as it is. Per-frame CRCs catch corruption
// frame by frame, the index cross-checks the frames, and a container
// cut anywhere before the footer is detected as truncation
// (io.ErrUnexpectedEOF), never silently read as a shorter trace.
//
// Legacy containers hold frames of type 0x01 instead, still read:
//
//	0x01 | startNext varint | records varint | instrs varint | rawLen varint
//	     | compLen varint | crc32(payload) u32le
//	     | payload (flate of `records` records, deltas seeded from startNext)
//
// Their index entries carry startNext and compLen; for 0x02 frames
// startNext is 0 (chunk files are self-based) and the last field is
// the chunk file's length.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/isa"
)

const (
	magicV2      = "IPFTRC02"
	footMagic    = "IPFTEND2"
	frameIndex   = 0x00
	frameRecords = 0x01 // legacy: flated record run
	frameChunk   = 0x02 // one chunk file

	// footerSize is the fixed tail: index offset, index CRC, end magic.
	footerSize = 8 + 4 + 8

	maxChunkRecords = 1 << 22
	maxChunkBytes   = 1 << 28
	maxChunks       = 1 << 24
)

// ErrCorrupt tags integrity failures (checksum mismatches, count or
// index disagreements) as opposed to plain truncation.
var ErrCorrupt = errors.New("corrupt container")

// ChunkInfo is one chunk-index entry.
type ChunkInfo struct {
	// Offset is the absolute container offset of the frame.
	Offset int64
	// Records and Instrs count the blocks and instructions within.
	Records uint64
	Instrs  uint64
	// StartNext is a legacy frame's delta base: the NextPC of the last
	// block before it. Chunk-file frames are self-based and carry 0.
	StartNext isa.Addr
	// CompLen is the frame's payload length in bytes.
	CompLen int
}

// WriterV2 encodes a block stream into an IPFTRC02 container. Close is
// mandatory: it flushes the final partial chunk and writes the index
// and footer, without which the container is (detectably) truncated.
type WriterV2 struct {
	w       io.Writer
	off     int64
	chunk   *ChunkBuilder
	scratch []byte
	index   []ChunkInfo
	closed  bool
}

// NewWriterV2 writes the container header for the given workload name
// and address-space id. Frames are cut at content-defined boundaries,
// so chunkRecords must be 0.
func NewWriterV2(w io.Writer, name string, asid uint64, chunkRecords int) (*WriterV2, error) {
	if chunkRecords != 0 {
		return nil, fmt.Errorf("trace: chunkRecords %d: chunks are cut at content-defined boundaries, pass 0", chunkRecords)
	}
	scratch := make([]byte, binary.MaxVarintLen64)
	var hdr bytes.Buffer
	hdr.WriteString(magicV2)
	putUvarint(&hdr, scratch, uint64(len(name)))
	hdr.WriteString(name)
	putUvarint(&hdr, scratch, asid)
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return nil, err
	}
	return &WriterV2{w: w, off: int64(hdr.Len()), chunk: NewChunkBuilder(), scratch: scratch}, nil
}

// Write appends one block.
func (t *WriterV2) Write(b *isa.Block) error {
	if t.closed {
		return errors.New("trace: write after Close")
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if t.chunk.Add(b) {
		return t.flushChunk()
	}
	return nil
}

// WriteChunk appends one chunk file verbatim as a frame holding records
// blocks and instrs instructions, after any blocks buffered by Write.
// The caller vouches for the counts; readers check them.
func (t *WriterV2) WriteChunk(file []byte, records, instrs uint64) error {
	if t.closed {
		return errors.New("trace: write after Close")
	}
	if err := t.flushChunk(); err != nil {
		return err
	}
	return t.writeFrame(file, records, instrs)
}

// flushChunk encodes and frames the buffered blocks.
func (t *WriterV2) flushChunk() error {
	if t.chunk.Records() == 0 {
		return nil
	}
	file, err := t.chunk.Encode(nil)
	if err != nil {
		return err
	}
	err = t.writeFrame(file, uint64(t.chunk.Records()), t.chunk.Instrs())
	t.chunk.Reset()
	return err
}

func (t *WriterV2) writeFrame(file []byte, records, instrs uint64) error {
	var hdr bytes.Buffer
	hdr.WriteByte(frameChunk)
	putUvarint(&hdr, t.scratch, records)
	putUvarint(&hdr, t.scratch, instrs)
	putUvarint(&hdr, t.scratch, uint64(len(file)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(file))
	hdr.Write(crc[:])
	if _, err := t.w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if _, err := t.w.Write(file); err != nil {
		return err
	}
	t.index = append(t.index, ChunkInfo{Offset: t.off, Records: records, Instrs: instrs, CompLen: len(file)})
	t.off += int64(hdr.Len()) + int64(len(file))
	return nil
}

// Close flushes the final chunk and writes the chunk index and footer.
func (t *WriterV2) Close() error {
	if t.closed {
		return nil
	}
	if err := t.flushChunk(); err != nil {
		return err
	}
	t.closed = true
	var idx bytes.Buffer
	idx.WriteByte(frameIndex)
	putUvarint(&idx, t.scratch, uint64(len(t.index)))
	for _, c := range t.index {
		putUvarint(&idx, t.scratch, uint64(c.Offset))
		putUvarint(&idx, t.scratch, c.Records)
		putUvarint(&idx, t.scratch, c.Instrs)
		putUvarint(&idx, t.scratch, uint64(c.StartNext))
		putUvarint(&idx, t.scratch, uint64(c.CompLen))
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(t.off))
	binary.LittleEndian.PutUint32(foot[8:12], crc32.ChecksumIEEE(idx.Bytes()))
	copy(foot[12:], footMagic)
	if _, err := t.w.Write(idx.Bytes()); err != nil {
		return err
	}
	_, err := t.w.Write(foot[:])
	return err
}

// crcReader tees everything read through it into a running CRC32, so
// the streaming reader can checksum the index as it parses it.
type crcReader struct {
	r   recordReader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

// nextFrame decodes the next frame whole or, at the index frame,
// verifies the container tail and returns io.EOF.
func (t *Reader) nextFrame() ([]isa.Block, []byte, error) {
	if t.done {
		return nil, nil, io.EOF
	}
	frameOff := t.r.n
	typ, err := t.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, nil, fmt.Errorf("trace: container truncated before chunk index (%d chunks read): %w",
				len(t.seen), io.ErrUnexpectedEOF)
		}
		return nil, nil, fmt.Errorf("trace: reading frame: %w", err)
	}
	switch typ {
	case frameChunk, frameRecords:
		return t.readFrame(typ, frameOff)
	case frameIndex:
		if err := t.readIndexAndFooter(frameOff); err != nil {
			return nil, nil, err
		}
		t.done = true
		return nil, nil, io.EOF
	default:
		return nil, nil, fmt.Errorf("trace: unknown frame type 0x%02x at offset %d: %w", typ, frameOff, ErrCorrupt)
	}
}

// readFrame parses, checks and decodes one chunk-file or legacy frame.
func (t *Reader) readFrame(typ byte, off int64) ([]isa.Block, []byte, error) {
	i := len(t.seen)
	fail := func(err error) ([]isa.Block, []byte, error) {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, fmt.Errorf("trace: chunk %d truncated: %w", i, err)
	}
	nFields := 3 // records, instrs, fileLen
	if typ == frameRecords {
		nFields = 5 // startNext, records, instrs, rawLen, compLen
	}
	var fields [5]uint64
	for f := 0; f < nFields; f++ {
		v, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fail(err)
		}
		fields[f] = v
	}
	var base, recs, instrs, rawLen, payLen uint64
	if typ == frameRecords {
		base, recs, instrs, rawLen, payLen = fields[0], fields[1], fields[2], fields[3], fields[4]
		if rawLen == 0 || rawLen > maxChunkBytes {
			return nil, nil, fmt.Errorf("trace: chunk %d: implausible raw size %d: %w", i, rawLen, ErrCorrupt)
		}
	} else {
		recs, instrs, payLen = fields[0], fields[1], fields[2]
	}
	if recs == 0 || recs > maxChunkRecords {
		return nil, nil, fmt.Errorf("trace: chunk %d: implausible record count %d: %w", i, recs, ErrCorrupt)
	}
	if payLen == 0 || payLen > maxChunkBytes {
		return nil, nil, fmt.Errorf("trace: chunk %d: implausible payload size %d: %w", i, payLen, ErrCorrupt)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(t.r, crcb[:]); err != nil {
		return fail(err)
	}
	payload, err := readPayload(t.r, int(payLen))
	if err != nil {
		return fail(err)
	}
	want := binary.LittleEndian.Uint32(crcb[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, fmt.Errorf("trace: chunk %d: checksum mismatch (stored %08x, computed %08x): %w",
			i, want, got, ErrCorrupt)
	}
	var blocks []isa.Block
	file := payload
	if typ == frameRecords {
		file = nil
		var raw []byte
		if raw, err = inflate(payload, int(rawLen), nil); err == nil {
			blocks, err = decodeRecords(raw, isa.Addr(base))
		}
	} else {
		blocks, _, err = DecodeChunkFile(payload)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("trace: chunk %d: %w", i, err)
	}
	if uint64(len(blocks)) != recs {
		return nil, nil, fmt.Errorf("trace: chunk %d: record count mismatch (header %d, decoded %d): %w",
			i, recs, len(blocks), ErrCorrupt)
	}
	var sum uint64
	for j := range blocks {
		sum += uint64(blocks[j].NumInstrs)
	}
	if sum != instrs {
		return nil, nil, fmt.Errorf("trace: chunk %d: instruction count mismatch (header %d, decoded %d): %w",
			i, instrs, sum, ErrCorrupt)
	}
	t.seen = append(t.seen, ChunkInfo{
		Offset:    off,
		Records:   recs,
		Instrs:    instrs,
		StartNext: isa.Addr(base),
		CompLen:   int(payLen),
	})
	return blocks, file, nil
}

// readPayload reads n bytes, growing the buffer as data arrives, so a
// frame that declares a huge length cannot allocate it before the
// bytes exist.
func readPayload(r io.Reader, n int) ([]byte, error) {
	const step = 1 << 20
	buf := make([]byte, 0, min(n, step))
	for len(buf) < n {
		k := min(n-len(buf), step)
		buf = slices.Grow(buf, k)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readIndexAndFooter parses the trailing index, cross-checking every
// entry against the frames actually streamed past, then verifies the
// footer and that nothing follows it.
func (t *Reader) readIndexAndFooter(off int64) error {
	cr := &crcReader{r: t.r, crc: crc32.Update(0, crc32.IEEETable, []byte{frameIndex})}
	fail := func(err error) error {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: chunk index truncated: %w", err)
	}
	n, err := binary.ReadUvarint(cr)
	if err != nil {
		return fail(err)
	}
	if n > maxChunks {
		return fmt.Errorf("trace: chunk index: implausible chunk count %d: %w", n, ErrCorrupt)
	}
	if int(n) != len(t.seen) {
		return fmt.Errorf("trace: chunk index lists %d chunks but container holds %d: %w",
			n, len(t.seen), ErrCorrupt)
	}
	for i := 0; i < int(n); i++ {
		var fields [5]uint64
		for f := range fields {
			v, err := binary.ReadUvarint(cr)
			if err != nil {
				return fail(err)
			}
			fields[f] = v
		}
		e := ChunkInfo{
			Offset:    int64(fields[0]),
			Records:   fields[1],
			Instrs:    fields[2],
			StartNext: isa.Addr(fields[3]),
			CompLen:   int(fields[4]),
		}
		if e != t.seen[i] {
			return fmt.Errorf("trace: chunk %d: index entry disagrees with chunk frame: %w", i, ErrCorrupt)
		}
	}
	var foot [footerSize]byte
	if _, err := io.ReadFull(t.r, foot[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("trace: footer truncated: %w", io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("trace: reading footer: %w", err)
	}
	if string(foot[12:]) != footMagic {
		return fmt.Errorf("trace: footer: bad end magic: %w", ErrCorrupt)
	}
	if got := int64(binary.LittleEndian.Uint64(foot[0:8])); got != off {
		return fmt.Errorf("trace: footer index offset %d does not match index at %d: %w", got, off, ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(foot[8:12]); got != cr.crc {
		return fmt.Errorf("trace: chunk index checksum mismatch (stored %08x, computed %08x): %w",
			got, cr.crc, ErrCorrupt)
	}
	if _, err := t.r.ReadByte(); err == nil {
		return fmt.Errorf("trace: trailing data after footer: %w", ErrCorrupt)
	} else if err != io.EOF {
		return fmt.Errorf("trace: reading past footer: %w", err)
	}
	return nil
}
