// Package corpus is a content-addressed on-disk store of recorded
// instruction traces — the library's analogue of the shared trace
// corpora the paper's methodology (and MANA's evaluation) revolve
// around.
//
// Entries are not stored as opaque containers. Each trace's record
// stream is split at content-defined boundaries into chunk files (both
// defined in internal/trace) kept in a chunk-level CAS
// (`<dir>/chunks/<sha256>`), and the entry's manifest
// (`<dir>/<id>.json`) carries the recipe — the ordered chunk list —
// plus counts and an analysis fingerprint. Near-
// duplicate traces (same program, different seed or phase) share
// chunk files, so the store dedups at chunk granularity and reports
// the ratio per entry.
//
// The entry id is the SHA-256 of the trace's logical content (header
// fields plus the canonical record stream), not of any file bytes, so
// the same stream ingested anywhere — live capture, container upload,
// or chunk-by-chunk replication from a peer — gets the same name, and
// a sweep pinned to `trace:<id>` simulates a bit-identical stream on
// every machine that can resolve the id.
//
// Ingest is atomic and strict: the stream is fully decoded and
// validated before any chunk or manifest is written, chunk and
// manifest writes are temp-file + rename, and failed ingests leave no
// temp files behind. Re-ingesting existing content is a no-op. A
// container's frames are cut where the store cuts, so ingest keeps
// their chunk files and download copies them back out instead of
// re-encoding them.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/atomicfile"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fingerprintLineBytes fixes the cache-line granularity fingerprints
// are computed at, so equal streams always fingerprint equally.
const fingerprintLineBytes = 64

// missBandBucket is the first stack-distance bucket counted as "deep"
// reuse: bucket 9 holds distances in [512, 1024) lines, i.e. beyond a
// 32 KiB L1-I worth of 64-byte lines. References at or past it (plus
// cold misses) approximate the L1-I miss band.
const missBandBucket = 9

// idMagic seeds the entry-id hash. The id covers logical content
// (name, asid, canonical record stream) rather than container bytes,
// so it survives re-encoding, codec changes and flate implementation
// differences between peers.
const idMagic = "IPFCID1\n"

// Fingerprint summarises a trace's stream statistics (via
// analysis.Profile). Verify recomputes it from the stored chunks; a
// mismatch against the manifest means the entry is corrupt. The
// struct is comparable on purpose — Verify relies on ==.
type Fingerprint struct {
	Instructions    uint64  `json:"instructions"`
	Blocks          uint64  `json:"blocks"`
	FootprintLines  uint64  `json:"footprint_lines"`
	DistinctTrigger int     `json:"distinct_triggers"`
	SingleTargetPct float64 `json:"single_target_pct"`
	// FlowChangePct is the fraction of blocks ending in a
	// flow-changing CTI (taken branches, calls, returns, traps).
	FlowChangePct float64 `json:"flow_change_pct"`
	// CTIMix is the per-kind share of block terminators, indexed by
	// isa.CTIKind.
	CTIMix [isa.NumCTIKinds]float64 `json:"cti_mix"`
	// MissBandPct estimates the L1-I miss band: the fraction of line
	// references that are cold or reused at stack distance >= 512
	// lines (beyond a 32 KiB L1-I).
	MissBandPct float64 `json:"miss_band_pct"`
	// FootprintBytes is the instruction footprint in bytes (the
	// line-count footprint scaled by the analysis line size). Zero in
	// manifests written before the field existed.
	FootprintBytes uint64 `json:"footprint_bytes,omitempty"`
	// ITLBMpki is modelled first-level I-TLB misses per
	// kilo-instruction (analysis.Profile's 128-entry 2-way model).
	// Zero in manifests written before the field existed.
	ITLBMpki float64 `json:"itlb_mpki,omitempty"`
}

// ChunkRef is one step of an entry's recipe: a content-defined chunk
// of the record stream, named by the SHA-256 of its self-based record
// bytes.
type ChunkRef struct {
	Hash    string `json:"hash"`
	Records uint64 `json:"records"`
	Instrs  uint64 `json:"instrs"`
	RawLen  int64  `json:"raw_len"`
}

// DedupStats records how much of an entry was already present when it
// was ingested. They are provenance, not content: Verify does not
// recompute them.
type DedupStats struct {
	NewChunks    int     `json:"new_chunks"`
	SharedChunks int     `json:"shared_chunks"`
	NewBytes     int64   `json:"new_bytes"`
	SharedBytes  int64   `json:"shared_bytes"`
	DedupRatio   float64 `json:"dedup_ratio"` // shared / total chunk refs
}

// Manifest describes one stored trace.
type Manifest struct {
	// ID is the lowercase hex SHA-256 of the entry's logical content
	// (idMagic, name, asid, canonical record stream).
	ID string `json:"id"`
	// Name and ASID come from the trace header.
	Name string `json:"name"`
	ASID uint64 `json:"asid"`
	// Format is the interchange container format served for downloads.
	Format string `json:"format"`
	// Blocks / Instructions count the decoded content; Chunks is the
	// recipe length.
	Blocks       uint64 `json:"blocks"`
	Instructions uint64 `json:"instructions"`
	Chunks       int    `json:"chunks"`
	// SizeBytes is the logical (uncompressed canonical record stream)
	// size; StoredBytes is the compressed chunk bytes this entry
	// added to the CAS when it was ingested.
	SizeBytes   int64 `json:"size_bytes"`
	StoredBytes int64 `json:"stored_bytes"`
	// Recipe lists the entry's chunks in stream order.
	Recipe []ChunkRef `json:"recipe"`
	// Dedup reports chunk sharing against the store at ingest time.
	Dedup DedupStats `json:"dedup"`
	// Fingerprint is recomputable from the chunks (see Verify).
	Fingerprint Fingerprint `json:"fingerprint"`
	// Source records how the entry arrived ("ingest", "capture",
	// "upload", "fetch", "federate", ...).
	Source    string    `json:"source,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

// Store is a content-addressed trace store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir      string
	chunkDir string

	mu     sync.Mutex
	chunks map[string][]byte // verified chunk-file bytes, keyed by chunk hash
	// pending holds chunk hashes referenced by in-flight ingests that
	// have not yet landed a manifest; GC treats them as roots.
	pending map[string]int
	// referenced is non-nil while a GC pass runs: it collects every
	// hash ingests reference after the pass snapshotted pending, and the
	// sweep spares those chunks.
	referenced map[string]struct{}
	gcMu       sync.Mutex // serialises GC passes (they share referenced)
}

// Open creates (if needed) and returns the store at dir.
func Open(dir string) (*Store, error) {
	chunkDir := filepath.Join(dir, "chunks")
	if err := os.MkdirAll(chunkDir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return &Store{
		dir:      dir,
		chunkDir: chunkDir,
		chunks:   make(map[string][]byte),
		pending:  make(map[string]int),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validID reports whether id looks like a lowercase hex SHA-256 — the
// only names the store ever serves (entries and chunks alike), which
// also keeps path traversal out of HTTP handlers that pass ids
// through.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) manifestPath(id string) string { return filepath.Join(s.dir, id+".json") }
func (s *Store) chunkPath(hash string) string  { return filepath.Join(s.chunkDir, hash) }

// tombstonePath holds a deleted entry's manifest. Tombstones are
// invisible to Has/Get/List (the *.json glob misses them) but let GC
// resolve the recipe of an entry that a sweep journal still pins.
func (s *Store) tombstonePath(id string) string {
	return filepath.Join(s.dir, id+".json.deleted")
}

// Has reports whether the store holds id.
func (s *Store) Has(id string) bool {
	if !validID(id) {
		return false
	}
	_, err := os.Stat(s.manifestPath(id))
	return err == nil
}

// Get returns the manifest for id.
func (s *Store) Get(id string) (Manifest, error) {
	if !validID(id) {
		return Manifest{}, fmt.Errorf("corpus: invalid id %q", id)
	}
	data, err := os.ReadFile(s.manifestPath(id))
	if err != nil {
		return Manifest{}, fmt.Errorf("corpus: %s: %w", id, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("corpus: %s: manifest malformed: %w", id, err)
	}
	return m, nil
}

// List returns every manifest, oldest first (ties broken by id).
func (s *Store) List() ([]Manifest, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Manifest
	for _, p := range names {
		id := filepath.Base(p)
		id = id[:len(id)-len(".json")]
		if !validID(id) {
			continue
		}
		m, err := s.Get(id)
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted since the glob
		}
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Delete removes an entry from the visible index. The manifest is
// renamed to a tombstone (mtime touched to the deletion instant)
// rather than unlinked, so a GC pass can still mark the recipe live
// while a sweep journal pins the id — or while the deletion is newer
// than the grace window. Chunks stay in the CAS (they may be shared)
// until GC finds them unreferenced and unpinned; GC also reaps
// tombstones nothing pins any more.
func (s *Store) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("corpus: invalid id %q", id)
	}
	if err := os.Rename(s.manifestPath(id), s.tombstonePath(id)); err != nil {
		return err
	}
	now := time.Now()
	os.Chtimes(s.tombstonePath(id), now, now) // best-effort: dates the deletion for GC grace
	return nil
}

// readTombstone loads a deleted entry's preserved manifest.
func (s *Store) readTombstone(id string) (Manifest, error) {
	if !validID(id) {
		return Manifest{}, fmt.Errorf("corpus: invalid id %q", id)
	}
	data, err := os.ReadFile(s.tombstonePath(id))
	if err != nil {
		return Manifest{}, fmt.Errorf("corpus: %s: %w", id, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("corpus: %s: tombstone malformed: %w", id, err)
	}
	return m, nil
}

// equalContent compares the content-derived parts of two manifests,
// ignoring provenance (Source, CreatedAt, Dedup, StoredBytes). The
// first argument is the freshly recomputed manifest, the second the
// stored one being checked.
func equalContent(got, want Manifest) bool {
	return got.ID == want.ID && got.Name == want.Name && got.ASID == want.ASID &&
		got.Format == want.Format && got.Blocks == want.Blocks &&
		got.Instructions == want.Instructions && got.Chunks == want.Chunks &&
		got.SizeBytes == want.SizeBytes &&
		fingerprintsEqual(got.Fingerprint, want.Fingerprint) &&
		slices.Equal(got.Recipe, want.Recipe)
}

// fingerprintsEqual compares a recomputed fingerprint against a stored
// one, tolerating manifests written before FootprintBytes/ITLBMpki
// existed: when the stored fingerprint predates the fields (both
// zero), the recomputed values are masked so old corpora still verify.
func fingerprintsEqual(got, stored Fingerprint) bool {
	if stored.FootprintBytes == 0 && stored.ITLBMpki == 0 {
		got.FootprintBytes, got.ITLBMpki = 0, 0
	}
	return got == stored
}

// ingester builds an entry chunk by chunk from a block stream. It
// accumulates everything in memory (compressed) and only touches disk
// in commit, so invalid input never leaves partial state.
type ingester struct {
	s    *Store
	name string
	asid uint64

	idh       hash.Hash
	prof      *analysis.Profile
	chunk     *trace.ChunkBuilder
	scratch   []byte
	canon     bytes.Buffer // one canonical record (id hash input)
	prevCanon isa.Addr

	// frame is the chunk file of the input frame the current chunk
	// began with, and frameRecs its block count: when the chunk ends
	// where that frame ends, the file is kept instead of re-encoded.
	frame     []byte
	frameRecs int

	blocks, instrs uint64
	chunks         []pendingChunk
}

type pendingChunk struct {
	ref  ChunkRef
	file []byte
}

func (s *Store) newIngester(name string, asid uint64) *ingester {
	ing := &ingester{
		s:       s,
		name:    name,
		asid:    asid,
		idh:     sha256.New(),
		prof:    analysis.NewProfile(fingerprintLineBytes),
		chunk:   trace.NewChunkBuilder(),
		scratch: make([]byte, binary.MaxVarintLen64),
	}
	ing.idh.Write([]byte(idMagic))
	ing.idh.Write(ing.scratch[:binary.PutUvarint(ing.scratch, uint64(len(name)))])
	ing.idh.Write([]byte(name))
	ing.idh.Write(ing.scratch[:binary.PutUvarint(ing.scratch, asid)])
	return ing
}

// addFrame adds one input frame's blocks; file is the frame's chunk
// file, or nil when the input carries none.
func (ing *ingester) addFrame(blocks []isa.Block, file []byte) error {
	ing.frame, ing.frameRecs = nil, 0
	if ing.chunk.Records() == 0 {
		ing.frame, ing.frameRecs = file, len(blocks)
	}
	for i := range blocks {
		if err := ing.add(&blocks[i]); err != nil {
			return err
		}
	}
	return nil
}

func (ing *ingester) add(b *isa.Block) error {
	ing.prof.Observe(b)

	// Canonical stream (continuous delta base) feeds the entry id.
	ing.canon.Reset()
	ing.prevCanon = trace.EncodeRecord(&ing.canon, ing.scratch, ing.prevCanon, b)
	ing.idh.Write(ing.canon.Bytes())

	ing.blocks++
	ing.instrs += uint64(b.NumInstrs)
	if ing.chunk.Add(b) {
		return ing.flush()
	}
	return nil
}

// flush seals the current chunk: hash its raw bytes and take its chunk
// file, kept from the input frame when the chunk is exactly that frame.
func (ing *ingester) flush() error {
	var same []byte
	if ing.chunk.Records() == ing.frameRecs {
		same = ing.frame
	}
	ing.frame, ing.frameRecs = nil, 0
	file, err := ing.chunk.Encode(same)
	if err != nil {
		return err
	}
	raw := ing.chunk.Raw()
	sum := sha256.Sum256(raw)
	ing.chunks = append(ing.chunks, pendingChunk{
		ref: ChunkRef{
			Hash:    hex.EncodeToString(sum[:]),
			Records: uint64(ing.chunk.Records()),
			Instrs:  ing.chunk.Instrs(),
			RawLen:  int64(len(raw)),
		},
		file: file,
	})
	ing.chunk.Reset()
	return nil
}

// seal flushes the final partial chunk.
func (ing *ingester) seal() error {
	if ing.chunk.Records() > 0 {
		return ing.flush()
	}
	return nil
}

// finish computes the entry id and commits chunks + manifest. If the
// store already holds the id, nothing is written.
func (ing *ingester) finish(source string) (Manifest, error) {
	if err := ing.seal(); err != nil {
		return Manifest{}, err
	}
	if ing.blocks == 0 {
		return Manifest{}, fmt.Errorf("corpus: refusing to store an empty trace")
	}
	id := hex.EncodeToString(ing.idh.Sum(nil))
	s := ing.s
	if s.Has(id) {
		return s.Get(id)
	}

	var sizeBytes int64
	hashes := make([]string, len(ing.chunks))
	recipe := make([]ChunkRef, len(ing.chunks))
	for i, c := range ing.chunks {
		hashes[i] = c.ref.Hash
		recipe[i] = c.ref
		sizeBytes += c.ref.RawLen
	}

	// Chunks written before the manifest lands are GC roots via the
	// pending set (same process) and the grace window (cross-process).
	s.addPending(hashes)
	defer s.removePending(hashes)

	var dd DedupStats
	var stored int64
	for _, c := range ing.chunks {
		if st, err := os.Stat(s.chunkPath(c.ref.Hash)); err == nil {
			dd.SharedChunks++
			dd.SharedBytes += st.Size()
			continue
		}
		if err := s.writeChunkFile(c.ref.Hash, c.file); err != nil {
			return Manifest{}, err
		}
		dd.NewChunks++
		dd.NewBytes += int64(len(c.file))
		stored += int64(len(c.file))
	}
	dd.DedupRatio = float64(dd.SharedChunks) / float64(len(ing.chunks))

	man := Manifest{
		ID:           id,
		Name:         ing.name,
		ASID:         ing.asid,
		Format:       "IPFTRC02",
		Blocks:       ing.blocks,
		Instructions: ing.instrs,
		Chunks:       len(recipe),
		SizeBytes:    sizeBytes,
		StoredBytes:  stored,
		Recipe:       recipe,
		Dedup:        dd,
		Fingerprint:  fingerprintOf(ing.prof, ing.blocks, ing.instrs),
		Source:       source,
		CreatedAt:    time.Now().UTC(),
	}
	if err := s.writeManifest(man); err != nil {
		return Manifest{}, err
	}
	s.indexAdd(man)
	return man, nil
}

// addPending makes hashes GC roots until removePending. Callers add
// them before checking whether a chunk is already on disk.
func (s *Store) addPending(hashes []string) {
	s.mu.Lock()
	for _, h := range hashes {
		s.pending[h]++
		if s.referenced != nil {
			s.referenced[h] = struct{}{}
		}
	}
	s.mu.Unlock()
}

func (s *Store) removePending(hashes []string) {
	s.mu.Lock()
	for _, h := range hashes {
		if s.pending[h]--; s.pending[h] <= 0 {
			delete(s.pending, h)
		}
	}
	s.mu.Unlock()
}

// writeChunkFile lands chunk bytes atomically. Renaming over an
// existing identical file is harmless.
func (s *Store) writeChunkFile(hash string, file []byte) error {
	if err := atomicfile.Write(s.chunkPath(hash), file); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// writeManifest persists a manifest atomically.
func (s *Store) writeManifest(m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicfile.Write(s.manifestPath(m.ID), append(data, '\n')); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// decodeChunkFile decodes a chunk file and, when verify is set,
// re-encodes the blocks and checks the hash — the gate every untrusted
// chunk (disk read, peer fetch) passes before the store believes it.
func decodeChunkFile(hash string, file []byte, verify bool) ([]isa.Block, error) {
	blocks, rawLen, err := trace.DecodeChunkFile(file)
	if err != nil {
		return nil, fmt.Errorf("corpus: chunk %s: %w", hash, err)
	}
	if verify {
		raw := trace.RawRecords(blocks)
		if len(raw) != rawLen {
			return nil, fmt.Errorf("corpus: chunk %s: raw length %d, header claims %d", hash, len(raw), rawLen)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != hash {
			return nil, fmt.Errorf("corpus: chunk %s: content hashes to %s", hash, got)
		}
	}
	return blocks, nil
}

func (s *Store) hasChunk(hash string) bool {
	if !validID(hash) {
		return false
	}
	_, err := os.Stat(s.chunkPath(hash))
	return err == nil
}

// chunkBlocks loads and decodes one chunk, verifying its hash on
// first load and caching the (small, compressed) file bytes so replay
// re-decodes from RAM.
func (s *Store) chunkBlocks(hash string) ([]isa.Block, error) {
	if !validID(hash) {
		return nil, fmt.Errorf("corpus: invalid chunk hash %q", hash)
	}
	s.mu.Lock()
	file, ok := s.chunks[hash]
	s.mu.Unlock()
	if ok {
		return decodeChunkFile(hash, file, false)
	}
	file, err := os.ReadFile(s.chunkPath(hash))
	if err != nil {
		return nil, fmt.Errorf("corpus: chunk %s: %w", hash, err)
	}
	blocks, err := decodeChunkFile(hash, file, true)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.chunks[hash] = file
	s.mu.Unlock()
	return blocks, nil
}

func (s *Store) dropCachedChunks(man Manifest) {
	s.mu.Lock()
	for _, ref := range man.Recipe {
		delete(s.chunks, ref.Hash)
	}
	s.mu.Unlock()
}

// Put ingests a trace from r — an IPFTRC02 container or a legacy v1
// stream — streaming it once and validating every frame CRC, count
// and the index before anything lands in the CAS. Frames cut where the
// store cuts keep their chunk files; any other input is re-chunked and
// encoded. Re-putting content the store already holds is a no-op
// returning the existing manifest. source labels the manifest's
// provenance field.
func (s *Store) Put(r io.Reader, source string) (Manifest, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return Manifest{}, fmt.Errorf("corpus: invalid input trace: %w", err)
	}
	ing := s.newIngester(tr.Name(), tr.ASID())
	for {
		blocks, file, err := tr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Manifest{}, fmt.Errorf("corpus: invalid input trace: %w", err)
		}
		if err := ing.addFrame(blocks, file); err != nil {
			return Manifest{}, err
		}
	}
	return ing.finish(source)
}

// Capture records n blocks from a live source into the store — the
// generator-capture adapter.
func (s *Store) Capture(src workload.Source, name string, asid uint64, n uint64) (Manifest, error) {
	var buf bytes.Buffer
	if err := trace.Record(&buf, name, asid, src, n); err != nil {
		return Manifest{}, err
	}
	return s.Put(&buf, "capture")
}

func fingerprintOf(p *analysis.Profile, blocks, instrs uint64) Fingerprint {
	f := Fingerprint{
		Instructions:    instrs,
		Blocks:          blocks,
		FootprintLines:  p.FootprintBytes() / fingerprintLineBytes,
		FootprintBytes:  p.FootprintBytes(),
		ITLBMpki:        p.ITLBMissesPerKI(),
		DistinctTrigger: p.DistinctTriggers(),
		SingleTargetPct: p.SingleTargetFraction(),
	}
	for k := 0; k < isa.NumCTIKinds; k++ {
		f.CTIMix[k] = p.CTIFraction(isa.CTIKind(k))
		if isa.CTIKind(k).ChangesFlow() {
			f.FlowChangePct += f.CTIMix[k]
		}
	}
	var refs, deep uint64
	for i, n := range p.ReuseBuckets {
		refs += n
		if i >= missBandBucket {
			deep += n
		}
	}
	refs += p.ColdRefs
	deep += p.ColdRefs
	if refs > 0 {
		f.MissBandPct = float64(deep) / float64(refs)
	}
	return f
}

// recompute rebuilds an entry's content-derived manifest fields from
// its chunk files (bypassing the chunk cache), verifying every chunk
// hash and count on the way.
func (s *Store) recompute(man Manifest) (Manifest, error) {
	ing := s.newIngester(man.Name, man.ASID)
	for i, ref := range man.Recipe {
		file, err := os.ReadFile(s.chunkPath(ref.Hash))
		if err != nil {
			return Manifest{}, fmt.Errorf("corpus: %s: recipe step %d: %w", man.ID, i, err)
		}
		blocks, err := decodeChunkFile(ref.Hash, file, true)
		if err != nil {
			return Manifest{}, fmt.Errorf("corpus: %s: recipe step %d: %w", man.ID, i, err)
		}
		if uint64(len(blocks)) != ref.Records {
			return Manifest{}, fmt.Errorf("corpus: %s: recipe step %d: %d records, recipe claims %d",
				man.ID, i, len(blocks), ref.Records)
		}
		if err := ing.addFrame(blocks, file); err != nil {
			return Manifest{}, err
		}
	}
	if err := ing.seal(); err != nil {
		return Manifest{}, err
	}
	if ing.blocks == 0 {
		return Manifest{}, fmt.Errorf("corpus: %s: empty recipe", man.ID)
	}
	got := Manifest{
		ID:           hex.EncodeToString(ing.idh.Sum(nil)),
		Name:         man.Name,
		ASID:         man.ASID,
		Format:       "IPFTRC02",
		Blocks:       ing.blocks,
		Instructions: ing.instrs,
		Chunks:       len(ing.chunks),
		Fingerprint:  fingerprintOf(ing.prof, ing.blocks, ing.instrs),
	}
	for _, c := range ing.chunks {
		got.Recipe = append(got.Recipe, c.ref)
		got.SizeBytes += c.ref.RawLen
	}
	return got, nil
}

// Verify re-reads an entry end to end: every chunk must decode and
// hash to its recipe name, and the manifest's content-derived fields
// (id, counts, recipe, fingerprint) must equal what the chunks
// actually contain. A single flipped byte anywhere fails one of those
// checks.
func (s *Store) Verify(id string) error {
	want, err := s.Get(id)
	if err != nil {
		return err
	}
	got, err := s.recompute(want)
	if err != nil {
		s.dropCachedChunks(want)
		return err
	}
	if got.ID != id {
		s.dropCachedChunks(want)
		return fmt.Errorf("corpus: %s: content hashes to %s", id, got.ID)
	}
	if !equalContent(got, want) {
		s.dropCachedChunks(want)
		return fmt.Errorf("corpus: %s: manifest disagrees with content (stored %+v, recomputed %+v)", id, want, got)
	}
	return nil
}

// entryTrace adapts a stored entry to workload.ChunkedTrace: replay
// decodes one content-defined chunk at a time out of the CAS.
type entryTrace struct {
	s   *Store
	man Manifest
}

func (e *entryTrace) NumChunks() int { return len(e.man.Recipe) }
func (e *entryTrace) Blocks() uint64 { return e.man.Blocks }

func (e *entryTrace) DecodeChunk(i int) ([]isa.Block, error) {
	ref := e.man.Recipe[i]
	blocks, err := e.s.chunkBlocks(ref.Hash)
	if err != nil {
		return nil, err
	}
	if uint64(len(blocks)) != ref.Records {
		return nil, fmt.Errorf("corpus: %s: chunk %d: %d records, recipe claims %d",
			e.man.ID, i, len(blocks), ref.Records)
	}
	return blocks, nil
}

// ReplaySource opens a fresh replay Source over the stored entry —
// the provider hook internal/cmp uses to build per-core sources for
// `trace:<id>` workloads. Each call returns an independent cursor;
// all cursors share the store's verified chunk cache.
func (s *Store) ReplaySource(id string) (workload.Source, error) {
	man, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	return workload.FromTrace(&entryTrace{s: s, man: man})
}

// Reader assembles the entry into an IPFTRC02 container — the
// interchange format the HTTP download path serves. Each frame is a
// stored chunk file copied as it is, not decoded, so the download is
// checked where it is ingested: peers that Put it re-derive every
// chunk hash and arrive at the same entry id.
func (s *Store) Reader(id string) (io.ReadCloser, int64, error) {
	man, err := s.Get(id)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriterV2(&buf, man.Name, man.ASID, 0)
	if err != nil {
		return nil, 0, err
	}
	for _, ref := range man.Recipe {
		if !validID(ref.Hash) {
			return nil, 0, fmt.Errorf("corpus: %s: invalid chunk hash %q", id, ref.Hash)
		}
		file, err := os.ReadFile(s.chunkPath(ref.Hash))
		if err != nil {
			return nil, 0, fmt.Errorf("corpus: chunk %s: %w", ref.Hash, err)
		}
		if err := tw.WriteChunk(file, ref.Records, ref.Instrs); err != nil {
			return nil, 0, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, 0, err
	}
	return io.NopCloser(bytes.NewReader(buf.Bytes())), int64(buf.Len()), nil
}

// ChunkReader streams one chunk file of an entry (the federation
// route). The chunk must be part of id's recipe.
func (s *Store) ChunkReader(id, chunk string) (io.ReadCloser, int64, error) {
	man, err := s.Get(id)
	if err != nil {
		return nil, 0, err
	}
	if !validID(chunk) {
		return nil, 0, fmt.Errorf("corpus: invalid chunk hash %q", chunk)
	}
	found := false
	for _, ref := range man.Recipe {
		if ref.Hash == chunk {
			found = true
			break
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("corpus: %s: no chunk %s in recipe", id, chunk)
	}
	f, err := os.Open(s.chunkPath(chunk))
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}
