package corpus

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// captureWeb stores n generator blocks of the Web workload and returns
// the manifest.
func captureWeb(t *testing.T, s *Store, seed, n uint64) Manifest {
	t.Helper()
	prog := workload.MustBuildProgram(workload.Web(), 0)
	m, err := s.Capture(workload.NewGenerator(prog, seed), "Web", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// v1Stream encodes blocks as a legacy IPFTRC01 stream named "Web",
// which nothing writes any more but Put still reads.
func v1Stream(blocks []isa.Block) []byte {
	buf := bytes.NewBufferString("IPFTRC01\x03Web\x00")
	scratch := make([]byte, binary.MaxVarintLen64)
	var prevNext isa.Addr
	for i := range blocks {
		prevNext = trace.EncodeRecord(buf, scratch, prevNext, &blocks[i])
	}
	return buf.Bytes()
}

// containerBytes round-trips an entry through the download path.
func containerBytes(t *testing.T, s *Store, id string) []byte {
	t.Helper()
	rc, _, err := s.Reader(id)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCaptureGetListVerify(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 1, 3000)
	if m.Blocks != 3000 || m.Name != "Web" || m.Format != "IPFTRC02" {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Chunks == 0 || m.Chunks != len(m.Recipe) {
		t.Fatalf("chunks = %d, recipe = %d", m.Chunks, len(m.Recipe))
	}
	var recs, instrs uint64
	var raw int64
	for _, ref := range m.Recipe {
		recs += ref.Records
		instrs += ref.Instrs
		raw += ref.RawLen
		if !s.hasChunk(ref.Hash) {
			t.Fatalf("recipe chunk %s missing from CAS", ref.Hash)
		}
	}
	if recs != m.Blocks || instrs != m.Instructions || raw != m.SizeBytes {
		t.Fatalf("recipe totals (%d, %d, %d) disagree with manifest (%d, %d, %d)",
			recs, instrs, raw, m.Blocks, m.Instructions, m.SizeBytes)
	}
	if m.Fingerprint.Blocks != 3000 || m.Fingerprint.Instructions != m.Instructions {
		t.Fatalf("fingerprint = %+v", m.Fingerprint)
	}
	if m.Fingerprint.FlowChangePct <= 0 || m.Fingerprint.MissBandPct < 0 {
		t.Fatalf("fingerprint bands = %+v", m.Fingerprint)
	}
	if !s.Has(m.ID) {
		t.Fatal("Has = false after Capture")
	}
	got, err := s.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !equalContent(got, m) {
		t.Fatalf("Get = %+v, want %+v", got, m)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != m.ID {
		t.Fatalf("List = %+v", list)
	}
	if err := s.Verify(m.ID); err != nil {
		t.Fatal(err)
	}
}

// TestLogicalIdentity is the invariant federation rests on: the id
// names content, so the same stream arriving as a container upload or
// assembled back from chunks keeps its name.
func TestLogicalIdentity(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 1, 2000)

	// Downloading the entry and re-putting it elsewhere reproduces the id.
	data := containerBytes(t, s, m.ID)
	s2 := newStore(t)
	m2, err := s2.Put(bytes.NewReader(data), "upload")
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != m.ID {
		t.Fatalf("re-put changed id: %s -> %s", m.ID, m2.ID)
	}
	if !equalContent(m, m2) {
		t.Fatalf("re-put changed content:\n%+v\n%+v", m, m2)
	}
	if err := s2.Verify(m2.ID); err != nil {
		t.Fatal(err)
	}
}

func TestPutDedupsIdenticalContent(t *testing.T) {
	s := newStore(t)
	prog := workload.MustBuildProgram(workload.Web(), 0)
	var buf bytes.Buffer
	if err := trace.Record(&buf, "Web", 0, workload.NewGenerator(prog, 5), 1000); err != nil {
		t.Fatal(err)
	}
	m1, err := s.Put(bytes.NewReader(buf.Bytes()), "upload")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Put(bytes.NewReader(buf.Bytes()), "other-source")
	if err != nil {
		t.Fatal(err)
	}
	if m1.ID != m2.ID || m2.Source != m1.Source {
		t.Fatalf("re-put returned different manifest:\n%+v\n%+v", m1, m2)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("dedup failed: %d entries", len(list))
	}
}

func TestIngestV1ConvertsToChunks(t *testing.T) {
	s := newStore(t)
	prog := workload.MustBuildProgram(workload.Web(), 0)
	const n = 2000
	v1 := v1Stream(genBlocks(t, workload.Web(), 7, n))
	m, err := s.Put(bytes.NewReader(v1), "ingest")
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocks != n || m.Format != "IPFTRC02" {
		t.Fatalf("ingested manifest = %+v", m)
	}
	// The replayed stream must match the original generator bit-exactly.
	src, err := s.ReplaySource(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref := workload.NewGenerator(prog, 7)
	var got, want isa.Block
	for i := 0; i < n; i++ {
		ref.Next(&want)
		src.Next(&got)
		if got.PC != want.PC || got.CTI != want.CTI || got.NumInstrs != want.NumInstrs {
			t.Fatalf("block %d mismatch", i)
		}
		if want.CTI.ChangesFlow() && got.Target != want.Target {
			t.Fatalf("block %d target mismatch", i)
		}
		if len(got.MemOps) != len(want.MemOps) {
			t.Fatalf("block %d memops mismatch", i)
		}
	}
	// Past the end, replay wraps to the start of the trace.
	ref2 := workload.NewGenerator(prog, 7)
	ref2.Next(&want)
	src.Next(&got)
	if got.PC != want.PC {
		t.Fatalf("replay did not wrap: PC %#x, want %#x", uint64(got.PC), uint64(want.PC))
	}
}

// TestFailedIngestLeavesStoreClean is the regression test for orphaned
// temp files: corrupt input of every flavour must leave the store
// directory exactly as it was.
func TestFailedIngestLeavesStoreClean(t *testing.T) {
	s := newStore(t)
	good := captureWeb(t, s, 2, 500)
	snapshot := func() []string {
		var names []string
		for _, dir := range []string{s.Dir(), s.chunkDir} {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				names = append(names, filepath.Join(dir, e.Name()))
			}
		}
		return names
	}
	before := snapshot()

	if _, err := s.Put(strings.NewReader("not a trace at all"), "upload"); err == nil {
		t.Fatal("garbage accepted")
	}
	// A truncated container must be rejected.
	data := containerBytes(t, s, good.ID)
	if _, err := s.Put(bytes.NewReader(data[:len(data)-5]), "upload"); err == nil {
		t.Fatal("truncated container accepted")
	}
	// A corrupted container body (flipped byte in a chunk frame) fails
	// CRC validation partway through the decode.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if _, err := s.Put(bytes.NewReader(bad), "upload"); err == nil {
		t.Fatal("corrupted container accepted")
	}
	// Truncated v1 input as well.
	v1 := v1Stream(genBlocks(t, workload.Web(), 1, 100))
	if _, err := s.Put(bytes.NewReader(v1[:len(v1)-3]), "ingest"); err == nil {
		t.Fatal("truncated v1 stream accepted")
	}

	after := snapshot()
	if strings.Join(before, "\n") != strings.Join(after, "\n") {
		t.Fatalf("failed ingests changed the store:\nbefore: %v\nafter:  %v", before, after)
	}
	for _, name := range after {
		if strings.Contains(filepath.Base(name), ".ingest-") ||
			strings.Contains(filepath.Base(name), ".manifest-") ||
			strings.Contains(filepath.Base(name), ".chunk-") {
			t.Fatalf("temp file left behind: %s", name)
		}
	}
}

func TestVerifyCatchesFlippedChunkByte(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 3, 1500)
	path := s.chunkPath(m.Recipe[0].Hash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(m.ID); err == nil {
		t.Fatal("Verify accepted a flipped chunk byte")
	}
	// Replay must refuse the tampered chunk as well (the first chunk is
	// decoded when the source opens).
	if _, err := s.ReplaySource(m.ID); err == nil {
		t.Fatal("ReplaySource served tampered bytes")
	}
	// Restoring the bytes heals the entry.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(m.ID); err != nil {
		t.Fatalf("restored entry fails Verify: %v", err)
	}
}

func TestVerifyCatchesManifestTamper(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 4, 800)
	// Rewrite the manifest with an inflated block count: the chunks are
	// intact, so only the recomputed-manifest check can catch it.
	m.Blocks++
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), m.ID+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(m.ID); err == nil {
		t.Fatal("Verify accepted a tampered manifest")
	} else if !strings.Contains(err.Error(), "manifest disagrees") {
		t.Fatalf("Verify error = %v, want manifest disagreement", err)
	}
}

func TestInvalidIDsRejected(t *testing.T) {
	s := newStore(t)
	for _, id := range []string{
		"",
		"short",
		"../../../../etc/passwd",
		strings.Repeat("Z", 64),
		strings.Repeat("a", 63) + "/",
	} {
		if s.Has(id) {
			t.Fatalf("Has(%q) = true", id)
		}
		if _, err := s.Get(id); err == nil {
			t.Fatalf("Get(%q) succeeded", id)
		}
		if _, err := s.ReplaySource(id); err == nil {
			t.Fatalf("ReplaySource(%q) succeeded", id)
		}
		if _, _, err := s.ChunkReader(strings.Repeat("a", 64), id); err == nil {
			t.Fatalf("ChunkReader(chunk=%q) succeeded", id)
		}
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 5, 400)
	if err := s.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	if s.Has(m.ID) {
		t.Fatal("entry survives Delete")
	}
	if _, err := s.ReplaySource(m.ID); err == nil {
		t.Fatal("deleted entry still replayable")
	}
	// Chunks stay behind for GC, not Delete.
	if !s.hasChunk(m.Recipe[0].Hash) {
		t.Fatal("Delete removed shared chunk storage")
	}
}

func TestChunkReaderServesRecipeChunksOnly(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 8, 600)
	other := captureWeb(t, s, 9, 600)
	rc, size, err := s.ChunkReader(m.ID, m.Recipe[0].Hash)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || int64(len(data)) != size {
		t.Fatalf("chunk read = %d bytes, want %d (err %v)", len(data), size, err)
	}
	if _, err := decodeChunkFile(m.Recipe[0].Hash, data, true); err != nil {
		t.Fatalf("served chunk does not verify: %v", err)
	}
	// A chunk of another entry is not served under this id unless shared.
	foreign := ""
	mine := make(map[string]bool)
	for _, ref := range m.Recipe {
		mine[ref.Hash] = true
	}
	for _, ref := range other.Recipe {
		if !mine[ref.Hash] {
			foreign = ref.Hash
			break
		}
	}
	if foreign != "" {
		if _, _, err := s.ChunkReader(m.ID, foreign); err == nil {
			t.Fatal("ChunkReader served a chunk outside the recipe")
		}
	}
}

// TestConcurrentReplay exercises the shared chunk cache and independent
// replay cursors under the race detector.
func TestConcurrentReplay(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 6, 1200)
	const replayers = 4
	var wg sync.WaitGroup
	errs := make([]error, replayers)
	pcs := make([]isa.Addr, replayers)
	for i := 0; i < replayers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, err := s.ReplaySource(m.ID)
			if err != nil {
				errs[i] = err
				return
			}
			var b isa.Block
			for j := 0; j < 2000; j++ { // past one wrap
				src.Next(&b)
			}
			pcs[i] = b.PC
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replayer %d: %v", i, err)
		}
	}
	for i := 1; i < replayers; i++ {
		if pcs[i] != pcs[0] {
			t.Fatalf("replayer %d diverged: PC %#x vs %#x", i, uint64(pcs[i]), uint64(pcs[0]))
		}
	}
}
