package corpus

import (
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

func countChunkFiles(t *testing.T, s *Store) int {
	t.Helper()
	ents, err := os.ReadDir(s.chunkDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if validID(e.Name()) {
			n++
		}
	}
	return n
}

func TestGCDeletesOnlyUnreferencedChunks(t *testing.T) {
	s := newStore(t)
	keep := captureWeb(t, s, 1, 1500)
	doomed := captureWeb(t, s, 2, 1500)
	if err := s.Delete(doomed.ID); err != nil {
		t.Fatal(err)
	}

	// Dry run first: reports work, does nothing.
	dry, err := s.GC(GCOptions{DryRun: true, Grace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dry.Deleted == 0 {
		t.Fatal("dry run found nothing to delete after Delete")
	}
	if got := countChunkFiles(t, s); got != dry.Scanned {
		t.Fatalf("dry run removed files: %d left of %d", got, dry.Scanned)
	}

	st, err := s.GC(GCOptions{Grace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != dry.Deleted || st.Reclaimed != dry.Reclaimed {
		t.Fatalf("real pass %+v disagrees with dry run %+v", st, dry)
	}
	// Every chunk the surviving entry references is still there.
	if err := s.Verify(keep.ID); err != nil {
		t.Fatalf("GC broke a live entry: %v", err)
	}
	// And the doomed entry's unshared chunks are gone.
	if got := countChunkFiles(t, s); got != st.Live {
		t.Fatalf("%d chunk files left, want %d", got, st.Live)
	}
	// A second pass is a no-op.
	again, err := s.GC(GCOptions{Grace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Deleted != 0 {
		t.Fatalf("second GC pass deleted %d chunks", again.Deleted)
	}
}

func TestGCGraceWindowProtectsRecentChunks(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 3, 800)
	if err := s.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	// A deletion newer than the grace window keeps marking through its
	// tombstone, so the chunks are outright live.
	st, err := s.GC(GCOptions{Grace: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 || st.Live == 0 {
		t.Fatalf("fresh tombstone ignored: %+v", st)
	}
	// With the tombstone gone the fresh chunks are bare orphans; the
	// chunk-level grace window still protects them.
	if err := os.Remove(s.tombstonePath(m.ID)); err != nil {
		t.Fatal(err)
	}
	st, err = s.GC(GCOptions{Grace: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 || st.Skipped == 0 {
		t.Fatalf("grace window ignored: %+v", st)
	}
	// Defaulted grace (zero) behaves the same.
	st, err = s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 {
		t.Fatalf("default grace ignored: %+v", st)
	}
}

func TestGCExtraRootsPinSweepTraces(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 4, 800)
	if err := s.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	before := countChunkFiles(t, s)

	// Deleting leaves a tombstone, so a pinned id still resolves its
	// recipe: nothing may be collected while the pin holds.
	st, err := s.GC(GCOptions{Grace: -1, ExtraRootIDs: []string{m.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 || st.Live != before {
		t.Fatalf("pinned deleted entry was collected: %+v (chunks before %d)", st, before)
	}
	if countChunkFiles(t, s) != before {
		t.Fatal("chunk files vanished under a pinned tombstone")
	}

	// Dropping the pin releases the tombstone and every orphan.
	st, err = s.GC(GCOptions{Grace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != before || st.Live != 0 {
		t.Fatalf("unpinned tombstone not collected: %+v", st)
	}
	if n := countChunkFiles(t, s); n != 0 {
		t.Fatalf("%d chunk files survive with no roots", n)
	}
	if _, err := s.readTombstone(m.ID); err == nil {
		t.Fatal("tombstone survives its last pin")
	}
}

// TestGCConcurrentWithIngest races collection against captures (run
// under -race in CI): GC must never delete a chunk an in-flight or
// completed ingest references, even with the grace window disabled —
// the in-process pending set covers the gap between chunk writes and
// the manifest rename.
func TestGCConcurrentWithIngest(t *testing.T) {
	s := newStore(t)
	prog := workload.MustBuildProgram(workload.Web(), 0)
	const writers = 4
	var writerWG sync.WaitGroup
	ids := make([]string, writers)
	errs := make([]error, writers)
	stop := make(chan struct{})
	gcDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				gcDone <- nil
				return
			default:
			}
			if _, err := s.GC(GCOptions{Grace: -1}); err != nil {
				gcDone <- err
				return
			}
		}
	}()
	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func(i int) {
			defer writerWG.Done()
			m, err := s.Capture(workload.NewGenerator(prog, uint64(100+i)), "Web", 0, 1200)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = m.ID
		}(i)
	}
	writerWG.Wait()
	close(stop)
	if err := <-gcDone; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if err := s.Verify(id); err != nil {
			t.Fatalf("GC raced an ingest into corruption: %v", err)
		}
	}
}

// TestGCSparesChunksReferencedAfterMarking covers the dedup hit that
// lands between a pass's marking and its sweep: an ingest that finds
// an unreferenced chunk already on disk does not rewrite it, so the
// sweep must not delete it under the new manifest. The test stands in
// for the pass at the point where marking is done, then ingests.
func TestGCSparesChunksReferencedAfterMarking(t *testing.T) {
	s := newStore(t)
	m := captureWeb(t, s, 5, 1500)
	if err := os.Remove(s.manifestPath(m.ID)); err != nil { // orphan its chunks
		t.Fatal(err)
	}
	s.mu.Lock()
	s.referenced = make(map[string]struct{})
	s.mu.Unlock()
	again := captureWeb(t, s, 5, 1500) // every chunk is a dedup hit
	if again.Dedup.NewChunks != 0 {
		t.Fatalf("re-ingest wrote %d chunks, want all dedup hits", again.Dedup.NewChunks)
	}
	for _, ref := range again.Recipe {
		swept, err := s.sweepChunk(ref.Hash, false)
		if err != nil {
			t.Fatal(err)
		}
		if swept {
			t.Fatalf("sweep deleted chunk %s that the new manifest references", ref.Hash[:12])
		}
	}
	if err := s.Verify(again.ID); err != nil {
		t.Fatal(err)
	}
}

// TestGCConcurrentWithDelete races collection against an entry being
// ingested, verified and deleted over and over: a manifest deleted
// between List's glob and its read must not fail the pass, and each
// re-ingest (all dedup hits on chunks the last pass may be sweeping)
// must verify.
func TestGCConcurrentWithDelete(t *testing.T) {
	s := newStore(t)
	stop := make(chan struct{})
	gcDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				gcDone <- nil
				return
			default:
			}
			if _, err := s.GC(GCOptions{Grace: -1}); err != nil {
				gcDone <- err
				return
			}
		}
	}()
	var err error
	for i := 0; i < 30 && err == nil; i++ {
		m := captureWeb(t, s, 7, 1500)
		if err = s.Verify(m.ID); err == nil {
			err = s.Delete(m.ID)
		}
	}
	close(stop)
	if gcErr := <-gcDone; gcErr != nil {
		t.Fatal(gcErr)
	}
	if err != nil {
		t.Fatal(err)
	}
}
