package corpus

import (
	"testing"

	"repro/internal/workload"
)

// dedupProfile is a generator profile whose transaction bodies are
// deterministic: no conditional branches, indirect jumps, traps or
// memory operations, so the only randomness is the Zipf draw picking
// each transaction's entry function. Two seeds then emit different
// orderings of the *same* per-function block runs — exactly the
// "same binary, different seed/phase" near-duplicate the chunk CAS
// exists for. Long transactions make the shared runs span many
// content-defined chunks.
// Two extra knobs make the sharing measurable with the default 8 KiB
// chunk geometry: a steep dispatch Zipf so a handful of hot entry
// points dominate both captures (cross-seed overlap), and a flat
// callee Zipf with a deeper call mix so each entry's deterministic
// call tree walks enough *distinct* program bytes for the gear hash to
// find content boundaries (a tight loop over a few hundred bytes never
// fires a 13-bit mask).
func dedupProfile() workload.Profile {
	p := workload.Web()
	p.Name = "dedup-test"
	p.WCond = 0
	p.WJump = 0
	p.WTrap = 0
	p.LoadsPerInstr = 0
	p.StoresPerInstr = 0
	p.TransactionInstrs = 60000
	p.PopularityS = 1.6
	p.CalleeS = 0.2
	p.CalleesMean = 8
	p.WCall = 0.30
	return p
}

// TestCrossSeedChunkDedup is the acceptance bar: two captures of the
// same profile with different seeds must share at least 30% of their
// chunks in the CAS.
func TestCrossSeedChunkDedup(t *testing.T) {
	s := newStore(t)
	p := dedupProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := workload.MustBuildProgram(p, 0)
	const n = 60000 // blocks; ~8 transactions of deterministic body

	m1, err := s.Capture(workload.NewGenerator(prog, 101), p.Name, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Capture(workload.NewGenerator(prog, 202), p.Name, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ID == m2.ID {
		t.Fatal("different seeds produced the same trace")
	}
	if m1.Chunks < 10 || m2.Chunks < 10 {
		t.Fatalf("too few chunks to measure sharing: %d / %d", m1.Chunks, m2.Chunks)
	}
	if m2.Dedup.SharedChunks+m2.Dedup.NewChunks != m2.Chunks {
		t.Fatalf("dedup accounting broken: %+v vs %d chunks", m2.Dedup, m2.Chunks)
	}
	if m2.Dedup.DedupRatio < 0.30 {
		t.Fatalf("cross-seed dedup ratio = %.2f (%d/%d chunks shared), want >= 0.30",
			m2.Dedup.DedupRatio, m2.Dedup.SharedChunks, m2.Chunks)
	}
	// The store-wide stats must agree that storage is below the
	// logical footprint.
	st, err := s.CorpusStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.UniqueChunks >= st.ChunkRefs {
		t.Fatalf("store stats show no sharing: %+v", st)
	}
	if st.DedupRatio <= 0 || st.SpaceSaved <= 0 {
		t.Fatalf("store stats ratios: %+v", st)
	}
	// Both entries still verify and replay.
	for _, id := range []string{m1.ID, m2.ID} {
		if err := s.Verify(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIdenticalRecaptureIsFullyShared: the same seed captured twice
// hits the idempotent path (no new entry, no new chunks).
func TestIdenticalRecaptureIsFullyShared(t *testing.T) {
	s := newStore(t)
	prog := workload.MustBuildProgram(workload.Web(), 0)
	m1, err := s.Capture(workload.NewGenerator(prog, 7), "Web", 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.CorpusStats()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Capture(workload.NewGenerator(prog, 7), "Web", 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != m1.ID {
		t.Fatalf("recapture changed id: %s -> %s", m1.ID, m2.ID)
	}
	after, err := s.CorpusStats()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("idempotent recapture changed the store: %+v -> %+v", before, after)
	}
}
