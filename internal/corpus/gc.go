package corpus

// Mark-and-sweep garbage collection over the chunk CAS. Chunks are
// shared between entries and never deleted with them; GC reclaims the
// ones no recipe references any more.
//
// Roots are (a) every chunk referenced by any manifest on disk,
// (b) the in-process pending set (ingests that have written chunks
// but not yet landed a manifest), and (c) any extra entry ids the
// caller supplies — the daemon passes every trace id referenced by a
// sweep journal, finished or not, so a sweep's pinned traces survive
// even if someone deletes the manifest mid-run: Delete leaves a
// tombstone behind, and a tombstone that is pinned (or newer than
// the grace window) still contributes its recipe. Unpinned stale
// tombstones are reaped along with their orphaned chunks. A grace
// window additionally protects recently written chunks from racing a
// cross-process ingest between its chunk writes and its manifest
// rename.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// GCOptions tunes a collection pass.
type GCOptions struct {
	// DryRun counts and reports without deleting anything.
	DryRun bool
	// Grace protects chunks modified within the window (default
	// DefaultGCGrace when zero; negative disables the window).
	Grace time.Duration
	// ExtraRootIDs names entries whose recipes are marked live even
	// beyond the manifests on disk (e.g. traces pinned by sweep
	// journals). A pinned id resolves through its live manifest or,
	// after deletion, through its tombstone; ids with neither are
	// ignored.
	ExtraRootIDs []string
}

// DefaultGCGrace is wide enough that no real ingest holds chunks
// un-manifested for longer.
const DefaultGCGrace = time.Hour

// GCStats reports one collection pass.
type GCStats struct {
	Scanned   int   `json:"scanned"`   // chunk files examined
	Live      int   `json:"live"`      // referenced by a root
	Deleted   int   `json:"deleted"`   // removed (or would be, dry-run)
	Skipped   int   `json:"skipped"`   // unreferenced but inside the grace window
	Reclaimed int64 `json:"reclaimed"` // bytes freed (or would be, dry-run)
	DryRun    bool  `json:"dry_run"`
}

// GC runs one mark-and-sweep pass and returns what it did.
func (s *Store) GC(opts GCOptions) (GCStats, error) {
	grace := opts.Grace
	if grace == 0 {
		grace = DefaultGCGrace
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()

	// Sweep candidates are listed before marking: a chunk written
	// after this point is either younger than the grace window or
	// belongs to an ingest whose manifest lands before its next scan.
	entries, err := os.ReadDir(s.chunkDir)
	if err != nil {
		return GCStats{}, fmt.Errorf("corpus: gc: %w", err)
	}

	live := make(map[string]struct{})
	mark := func(man Manifest) {
		for _, ref := range man.Recipe {
			live[ref.Hash] = struct{}{}
		}
	}
	// Pending is snapshotted before List: an ingest clears its pending
	// entries only after its manifest lands, so every ingest that began
	// before this point is in the snapshot or in List. One that
	// references chunks after it is recorded in s.referenced, which the
	// sweep consults.
	s.mu.Lock()
	for h := range s.pending {
		live[h] = struct{}{}
	}
	s.referenced = make(map[string]struct{})
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.referenced = nil
		s.mu.Unlock()
	}()
	mans, err := s.List()
	if err != nil {
		return GCStats{}, fmt.Errorf("corpus: gc: %w", err)
	}
	for _, m := range mans {
		mark(m)
	}
	pinned := make(map[string]struct{}, len(opts.ExtraRootIDs))
	for _, id := range opts.ExtraRootIDs {
		pinned[id] = struct{}{}
		if m, err := s.Get(id); err == nil {
			mark(m)
			continue
		}
		if m, err := s.readTombstone(id); err == nil {
			mark(m)
		}
	}

	cutoff := time.Now().Add(-grace)

	// Tombstones: one that is pinned keeps contributing its recipe
	// (marked above); one deleted more recently than the grace window
	// still marks, covering a sweep submitted between the caller's
	// root scan and this pass. Anything else is reaped with its
	// orphans.
	stones, err := filepath.Glob(filepath.Join(s.dir, "*.json.deleted"))
	if err != nil {
		return GCStats{}, fmt.Errorf("corpus: gc: %w", err)
	}
	for _, p := range stones {
		id := strings.TrimSuffix(filepath.Base(p), ".json.deleted")
		if !validID(id) {
			continue
		}
		if s.Has(id) { // re-ingested since deletion; the stone is obsolete
			if !opts.DryRun {
				os.Remove(p)
			}
			continue
		}
		if _, ok := pinned[id]; ok {
			continue
		}
		if grace > 0 {
			if info, err := os.Stat(p); err == nil && info.ModTime().After(cutoff) {
				if m, err := s.readTombstone(id); err == nil {
					mark(m)
				}
				continue
			}
		}
		if !opts.DryRun {
			os.Remove(p)
		}
	}

	var st GCStats
	st.DryRun = opts.DryRun
	for _, ent := range entries {
		name := ent.Name()
		if !validID(name) {
			continue // temp files clean themselves up
		}
		st.Scanned++
		if _, ok := live[name]; ok {
			st.Live++
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced a concurrent delete
		}
		if grace > 0 && info.ModTime().After(cutoff) {
			st.Skipped++
			continue
		}
		swept, err := s.sweepChunk(name, opts.DryRun)
		if err != nil {
			return st, fmt.Errorf("corpus: gc: %w", err)
		}
		if !swept {
			st.Live++
			continue
		}
		st.Deleted++
		st.Reclaimed += info.Size()
	}
	return st, nil
}

// sweepChunk deletes an unmarked chunk (dry-run: only reports it)
// unless an ingest has referenced it since marking: that ingest's
// dedup check may have found the file on disk, and it will not write
// it again. Checking and removing under s.mu makes the two atomic
// against addPending, which an ingest calls before that check.
func (s *Store) sweepChunk(hash string, dryRun bool) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.referenced[hash]; ok {
		return false, nil
	}
	if dryRun {
		return true, nil
	}
	delete(s.chunks, hash)
	if err := os.Remove(s.chunkPath(hash)); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	return true, nil
}

// Stats summarises the whole store: how many chunk references the
// recipes make, how many distinct chunks back them, and the logical
// vs stored byte totals — the numbers `tracegen dedup-stats` prints
// and /metrics exports.
type Stats struct {
	Entries      int     `json:"entries"`
	ChunkRefs    int     `json:"chunk_refs"`
	UniqueChunks int     `json:"unique_chunks"`
	OrphanChunks int     `json:"orphan_chunks"` // on disk, referenced by nothing
	LogicalBytes int64   `json:"logical_bytes"` // uncompressed record-stream bytes
	StoredBytes  int64   `json:"stored_bytes"`  // compressed referenced chunk files
	DedupRatio   float64 `json:"dedup_ratio"`   // 1 - unique/refs
	SpaceSaved   float64 `json:"space_saved"`   // 1 - stored/logical
}

// CorpusStats computes Stats from the manifests and chunk files.
func (s *Store) CorpusStats() (Stats, error) {
	mans, err := s.List()
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	st.Entries = len(mans)
	unique := make(map[string]struct{})
	for _, m := range mans {
		for _, ref := range m.Recipe {
			st.ChunkRefs++
			st.LogicalBytes += ref.RawLen
			unique[ref.Hash] = struct{}{}
		}
	}
	st.UniqueChunks = len(unique)
	entries, err := os.ReadDir(s.chunkDir)
	if err != nil {
		return Stats{}, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if !validID(name) {
			continue
		}
		if _, ok := unique[name]; !ok {
			st.OrphanChunks++
			continue
		}
		if info, err := ent.Info(); err == nil {
			st.StoredBytes += info.Size()
		}
	}
	if st.ChunkRefs > 0 {
		st.DedupRatio = 1 - float64(st.UniqueChunks)/float64(st.ChunkRefs)
	}
	if st.LogicalBytes > 0 {
		st.SpaceSaved = 1 - float64(st.StoredBytes)/float64(st.LogicalBytes)
	}
	return st, nil
}
