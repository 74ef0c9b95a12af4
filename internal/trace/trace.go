// Package trace defines the binary encoding of recorded basic-block
// streams, mirroring the paper's trace-driven methodology. The
// simulator normally consumes workload generators directly (they are
// deterministic, so a trace adds nothing), but traces allow capturing
// a stream once and replaying it across many configurations,
// exchanging streams between tools, and validating stream statistics
// offline with cmd/tracegen.
//
// A stream is encoded one way: as chunk files (chunkfile.go), cut at
// content-defined boundaries (chunker.go). The IPFTRC02 container
// (v2.go) frames those chunk files with CRCs and a trailing index, and
// the corpus stores the same chunk files, so ingest and download copy
// chunks instead of re-encoding them.
//
// Every encoding is built from one block record (little-endian):
//
//	record:  pcDelta zigzag-varint (from previous block's NextPC)
//	         numInstrs varint
//	         cti byte
//	         targetDelta zigzag-varint (from block end; flow-changing CTIs only)
//	         numMemOps varint
//	         per memop: addrDelta zigzag-varint (from previous memop) | kind byte
//
// Deltas make hot-loop records 3-6 bytes each. NewReader also reads two
// legacy inputs that are no longer written: the v1 flat stream
// ("IPFTRC01" | name len varint | name | asid varint | record*) and
// IPFTRC02 containers whose frames hold flated record runs (frame type
// 0x01).
package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

const magic = "IPFTRC01"

// ErrBadMagic is returned when the input is not a trace.
var ErrBadMagic = errors.New("trace: bad magic (not a trace file)")

// putUvarint / putSvarint append one varint to dst using scratch as the
// encode buffer (scratch must be at least binary.MaxVarintLen64 long).
func putUvarint(dst *bytes.Buffer, scratch []byte, v uint64) {
	dst.Write(scratch[:binary.PutUvarint(scratch, v)])
}

func putSvarint(dst *bytes.Buffer, scratch []byte, v int64) {
	dst.Write(scratch[:binary.PutVarint(scratch, v)])
}

// EncodeRecord appends one block record to dst using prevNext as the
// delta base and returns the new base (the block's NextPC). scratch
// must be at least binary.MaxVarintLen64 bytes. Encoding a stream of
// blocks with a running base gives the canonical record stream the
// corpus derives entry ids from; encoding with base 0 gives a
// self-based record that decodes without outside context.
func EncodeRecord(dst *bytes.Buffer, scratch []byte, prevNext isa.Addr, b *isa.Block) isa.Addr {
	putSvarint(dst, scratch, int64(b.PC)-int64(prevNext))
	putUvarint(dst, scratch, uint64(b.NumInstrs))
	dst.WriteByte(byte(b.CTI))
	if b.CTI.ChangesFlow() {
		putSvarint(dst, scratch, int64(b.Target)-int64(b.End()))
	}
	putUvarint(dst, scratch, uint64(len(b.MemOps)))
	prev := b.PC
	for _, m := range b.MemOps {
		putSvarint(dst, scratch, int64(m.Addr)-int64(prev))
		dst.WriteByte(byte(m.Kind))
		prev = m.Addr
	}
	return b.NextPC()
}

// recordReader is what the record decoder needs from its input; both
// bufio.Reader (v1 streams) and bytes.Reader (decoded payloads)
// satisfy it.
type recordReader interface {
	io.Reader
	io.ByteReader
}

// readRecord decodes one record into *b (reusing MemOps capacity),
// advancing *prevNext to the block's NextPC. blockIdx labels error
// messages. A clean end of input before the first byte returns bare
// io.EOF; any later cut returns io.ErrUnexpectedEOF (wrapped). Errors
// other than io.EOF carry a "block N" prefix but no package prefix —
// callers add stream- or chunk-level context.
func readRecord(r recordReader, prevNext *isa.Addr, blockIdx uint64, b *isa.Block) error {
	truncated := func(err error) error {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("block %d truncated: %w", blockIdx, err)
	}
	pcDelta, err := binary.ReadVarint(r)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("block %d: %w", blockIdx, err)
	}
	b.PC = isa.Addr(int64(*prevNext) + pcDelta)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return truncated(err)
	}
	b.NumInstrs = int(n)
	ctiByte, err := r.ReadByte()
	if err != nil {
		return truncated(err)
	}
	b.CTI = isa.CTIKind(ctiByte)
	if int(b.CTI) >= isa.NumCTIKinds {
		return fmt.Errorf("block %d: invalid CTI %d", blockIdx, ctiByte)
	}
	b.Target = 0
	if b.CTI.ChangesFlow() {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return truncated(err)
		}
		b.Target = isa.Addr(int64(b.End()) + d)
	}
	nOps, err := binary.ReadUvarint(r)
	if err != nil {
		return truncated(err)
	}
	if nOps > 1<<16 {
		return fmt.Errorf("block %d: implausible memop count %d", blockIdx, nOps)
	}
	b.MemOps = b.MemOps[:0]
	prev := b.PC
	for i := uint64(0); i < nOps; i++ {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return truncated(err)
		}
		kindByte, err := r.ReadByte()
		if err != nil {
			return truncated(err)
		}
		if kindByte > byte(isa.MemStore) {
			return fmt.Errorf("block %d: invalid memop kind %d", blockIdx, kindByte)
		}
		addr := isa.Addr(int64(prev) + d)
		b.MemOps = append(b.MemOps, isa.MemOp{Addr: addr, Kind: isa.MemKind(kindByte)})
		prev = addr
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("block %d: %w", blockIdx, err)
	}
	*prevNext = b.NextPC()
	return nil
}

// countingReader tracks how many bytes have been consumed, so the
// container decode path can cross-check frame offsets against the
// chunk index.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// Reader decodes a block stream: an IPFTRC02 container (decoded
// strictly, with every frame CRC and count and the index verified as
// they stream past) or a legacy v1 flat stream.
type Reader struct {
	r        *countingReader
	format   string
	name     string
	asid     uint64
	prevNext isa.Addr // v1 delta base
	blocks   uint64

	// Container state (see v2.go): the current frame's blocks.
	cur  []isa.Block
	pos  int
	seen []ChunkInfo
	done bool
}

// NewReader validates the header and returns a reader positioned at the
// first record. Both IPFTRC01 and IPFTRC02 inputs are accepted.
func NewReader(r io.Reader) (*Reader, error) {
	cr := &countingReader{r: bufio.NewReaderSize(r, 1<<16)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic && string(head) != magicV2 {
		return nil, ErrBadMagic
	}
	tr := &Reader{r: cr, format: string(head)}
	nameLen, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	tr.name = string(nameBuf)
	if tr.asid, err = binary.ReadUvarint(cr); err != nil {
		return nil, fmt.Errorf("trace: reading asid: %w", err)
	}
	return tr, nil
}

// Name returns the workload name recorded in the header.
func (t *Reader) Name() string { return t.name }

// ASID returns the address-space id recorded in the header.
func (t *Reader) ASID() uint64 { return t.asid }

// Format returns the container magic ("IPFTRC01" or "IPFTRC02").
func (t *Reader) Format() string { return t.format }

// Blocks returns the number of blocks read so far.
func (t *Reader) Blocks() uint64 { return t.blocks }

// Chunks returns the chunk descriptors seen so far (containers only;
// empty for v1). Complete once Read has returned io.EOF.
func (t *Reader) Chunks() []ChunkInfo { return append([]ChunkInfo(nil), t.seen...) }

// Read decodes the next block into *b (reusing MemOps capacity). It
// returns io.EOF at a clean end of stream and io.ErrUnexpectedEOF
// (wrapped, with the offending chunk named for containers) when the
// input is cut mid-record or mid-container.
func (t *Reader) Read(b *isa.Block) error {
	if t.format == magic {
		err := readRecord(t.r, &t.prevNext, t.blocks, b)
		switch {
		case err == nil:
			t.blocks++
			return nil
		case err == io.EOF:
			return io.EOF
		default:
			return fmt.Errorf("trace: %w", err)
		}
	}
	for t.pos >= len(t.cur) {
		blocks, _, err := t.nextFrame()
		if err != nil {
			return err
		}
		t.cur, t.pos = blocks, 0
	}
	src := &t.cur[t.pos]
	t.pos++
	t.blocks++
	b.PC, b.NumInstrs, b.CTI, b.Target = src.PC, src.NumInstrs, src.CTI, src.Target
	b.MemOps = append(b.MemOps[:0], src.MemOps...)
	return nil
}

// v1Batch is how many records ReadFrame returns at a time from a v1
// stream, which has no frames of its own.
const v1Batch = 4096

// ReadFrame decodes the next frame whole. It returns the frame's blocks
// and, for a chunk-file frame, the chunk file verbatim; the file is nil
// for legacy frames, and a v1 stream comes in batches of up to 4096
// blocks. It returns io.EOF after the last frame. Do not mix ReadFrame
// with Read on one Reader.
func (t *Reader) ReadFrame() ([]isa.Block, []byte, error) {
	if t.format == magic {
		var out []isa.Block
		for len(out) < v1Batch {
			var b isa.Block
			if err := t.Read(&b); err == io.EOF {
				break
			} else if err != nil {
				return nil, nil, err
			}
			out = append(out, b)
		}
		if len(out) == 0 {
			return nil, nil, io.EOF
		}
		return out, nil, nil
	}
	blocks, file, err := t.nextFrame()
	t.blocks += uint64(len(blocks))
	return blocks, file, err
}

// Record captures n blocks from src into w as an IPFTRC02 container.
func Record(w io.Writer, name string, asid uint64, src interface{ Next(*isa.Block) }, n uint64) error {
	return RecordContext(context.Background(), w, name, asid, src, n)
}

// ctxPollBlocks is how many blocks the capture and analysis loops
// process between context checks — frequent enough that cancellation
// lands within microseconds, rare enough to stay off the hot path.
const ctxPollBlocks = 8192

// RecordContext is Record with cooperative cancellation: the capture
// loop polls ctx every few thousand blocks and stops mid-stream with
// ctx's error. The container is still finalised (index and footer), so
// the output is a valid, shorter trace of the blocks captured so far.
func RecordContext(ctx context.Context, w io.Writer, name string, asid uint64, src interface{ Next(*isa.Block) }, n uint64) error {
	tw, err := NewWriterV2(w, name, asid, 0)
	if err != nil {
		return err
	}
	var b isa.Block
	for i := uint64(0); i < n; i++ {
		if i%ctxPollBlocks == 0 {
			if err := ctx.Err(); err != nil {
				tw.Close()
				return err
			}
		}
		src.Next(&b)
		if err := tw.Write(&b); err != nil {
			return err
		}
	}
	return tw.Close()
}
