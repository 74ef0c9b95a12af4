package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordDB captures n blocks of the single-core DB stream exactly as
// cmp.SourcesFor builds core 0 of a Cores:[1] "DB" run (same program
// image, ASID 0, engine seed, thread 0) — the basis for live-vs-replay
// equality.
func recordDB(t *testing.T, seed, n uint64) []byte {
	t.Helper()
	prog := workload.MustBuildProgram(workload.DB(), 0)
	var buf bytes.Buffer
	if err := trace.Record(&buf, "DB", 0, workload.NewGenerator(prog, seed), n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCorpusHTTPLifecycle(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	_, srv := newTestServer(t, cfg)
	raw := recordDB(t, 1, 2000)

	// Upload: 201 with a manifest. The id is the logical entry id
	// (name/asid/record stream), not a hash of the container bytes, so
	// it comes back from the store rather than being predictable from
	// raw alone.
	resp, err := http.Post(srv.URL+"/v1/corpus", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var man corpus.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, want 201", resp.StatusCode)
	}
	if len(man.ID) != 64 || man.Blocks != 2000 || man.Name != "DB" {
		t.Fatalf("uploaded manifest = %+v", man)
	}
	if man.Chunks == 0 || len(man.Recipe) != man.Chunks || man.StoredBytes == 0 {
		t.Fatalf("manifest missing chunk recipe: %+v", man)
	}

	// Idempotent re-upload: 200, same entry.
	resp, err = http.Post(srv.URL+"/v1/corpus", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var again corpus.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != man.ID {
		t.Fatalf("re-upload: status %d id %s, want 200 id %s", resp.StatusCode, again.ID, man.ID)
	}

	// Listing shows exactly the one entry.
	resp, err = http.Get(srv.URL + "/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Entries []corpus.Manifest `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Entries) != 1 || list.Entries[0].ID != man.ID {
		t.Fatalf("list = %+v", list.Entries)
	}

	// Fingerprint selection filters the listing; a bad selector is a
	// client error.
	for _, tc := range []struct {
		expr string
		want int
	}{
		{"name=DB", 1},
		{"name!=DB", 0},
		{"instructions>0,blocks>=2000", 1},
		{"footprint>100000000", 0},
	} {
		resp, err = http.Get(srv.URL + "/v1/corpus?select=" + url.QueryEscape(tc.expr))
		if err != nil {
			t.Fatal(err)
		}
		var sel struct {
			Entries []corpus.Manifest `json:"entries"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sel); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(sel.Entries) != tc.want {
			t.Fatalf("select %q: status %d, %d entries (want %d)", tc.expr, resp.StatusCode, len(sel.Entries), tc.want)
		}
	}
	resp, err = http.Get(srv.URL + "/v1/corpus?select=" + url.QueryEscape("bogusfield>1"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad selector status = %d, want 400", resp.StatusCode)
	}

	// Download reassembles a container from the CAS; re-ingesting it
	// lands on the same logical entry (200, same id) even though the
	// bytes are a fresh encoding.
	resp, err = http.Get(srv.URL + "/v1/corpus/" + man.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(got) == 0 {
		t.Fatalf("download: status %d, %d bytes", resp.StatusCode, len(got))
	}
	resp, err = http.Post(srv.URL+"/v1/corpus", "application/octet-stream", bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	var rt corpus.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rt.ID != man.ID {
		t.Fatalf("round-trip ingest: status %d id %s, want 200 id %s", resp.StatusCode, rt.ID, man.ID)
	}

	// The federation chunk route serves each recipe chunk with its
	// exact on-disk length; a hash outside the recipe is a 404.
	for _, ref := range man.Recipe {
		resp, err = http.Get(srv.URL + "/v1/corpus/" + man.ID + "/chunks/" + ref.Hash)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %s status = %d", ref.Hash[:12], resp.StatusCode)
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Fatalf("chunk %s: Content-Length %s, body %d bytes", ref.Hash[:12], cl, len(body))
		}
		// ref.Hash names the decoded record content, not the encoded
		// file, so content verification lives in the Fetcher tests; here
		// it is enough that the route serves the whole stored file.
	}
	resp, err = http.Get(srv.URL + "/v1/corpus/" + man.ID + "/chunks/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown chunk status = %d, want 404", resp.StatusCode)
	}

	// Manifest endpoint and unknown-id 404.
	resp, err = http.Get(srv.URL + "/v1/corpus/" + man.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/corpus/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp.StatusCode)
	}

	// Garbage uploads are rejected before they earn a name — and leave
	// no temp droppings behind (the Put cleanup regression).
	resp, err = http.Post(srv.URL+"/v1/corpus", "application/octet-stream",
		strings.NewReader("definitely not a container"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status = %d, want 400", resp.StatusCode)
	}
}

func TestCorpusUploadCapAndDisabledStore(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	cfg.MaxCorpusUploadBytes = 1024
	_, srv := newTestServer(t, cfg)
	raw := recordDB(t, 1, 5000) // well past 1 KiB
	resp, err := http.Post(srv.URL+"/v1/corpus", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status = %d, want 413", resp.StatusCode)
	}

	// Without a data dir there is no store: every corpus endpoint 503s.
	_, noData := newTestServer(t, testConfig(t))
	resp, err = http.Post(noData.URL+"/v1/corpus", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-data upload status = %d, want 503", resp.StatusCode)
	}
}

// TestLiveVsReplaySweepIdentical is the subsystem's headline guarantee:
// a sweep run against the live DB generator and the same sweep run
// against a recorded trace:<id> corpus entry produce identical
// per-point results, because the capture records exactly the stream
// cmp.SourcesFor would have generated.
func TestLiveVsReplaySweepIdentical(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s := newTestService(t, cfg) // registers the store as a trace provider

	prog := workload.MustBuildProgram(workload.DB(), 0)
	man, err := s.Corpus().Capture(workload.NewGenerator(prog, 1), "DB", 0, 15_000)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	axes := sweep.Spec{
		Schemes:      []string{"discontinuity", "nl-miss"},
		Workloads:    nil, // set per run
		Cores:        []int{1},
		TableEntries: []int{256, 512},
	}
	run := func(workloadName string) *sweep.Outcome {
		spec := axes
		spec.Workloads = []string{workloadName}
		runner := &sweep.Runner{Engine: sim.NewEngine(10_000, 20_000, 1)}
		out, err := runner.Run(ctx, spec)
		if err != nil {
			t.Fatalf("sweep over %q: %v", workloadName, err)
		}
		return out
	}
	live := run("DB")
	replay := run("trace:" + man.ID)

	if len(live.Points) != len(replay.Points) {
		t.Fatalf("grids differ: %d live vs %d replay points", len(live.Points), len(replay.Points))
	}
	for i := range live.Points {
		l, r := live.Points[i], replay.Points[i]
		if l.Point.Scheme != r.Point.Scheme || l.Point.TableEntries != r.Point.TableEntries ||
			l.Point.Baseline != r.Point.Baseline {
			t.Fatalf("point %d axes differ: %+v vs %+v", i, l.Point, r.Point)
		}
		if l.IPC != r.IPC || l.L1IMissPerInstr != r.L1IMissPerInstr ||
			l.L2IMissPerInstr != r.L2IMissPerInstr || l.PrefetchAccuracy != r.PrefetchAccuracy ||
			l.Instructions != r.Instructions || l.Cycles != r.Cycles ||
			l.OffChipTransfers != r.OffChipTransfers {
			t.Fatalf("point %d (%s, table %d) diverged:\nlive:   %+v\nreplay: %+v",
				i, l.Point.Scheme, l.Point.TableEntries, l, r)
		}
	}
}

// TestDistWorkersFetchTraceByHash runs a trace-replay sweep across two
// remote workers with empty local caches: each fetches the container
// from the daemon over /v1/corpus by hash before simulating, and the
// sweep completes with every point journaled exactly once.
func TestDistWorkersFetchTraceByHash(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s, srv := newRemoteOnlyServer(t, cfg)

	prog := workload.MustBuildProgram(workload.DB(), 0)
	man, err := s.Corpus().Capture(workload.NewGenerator(prog, 1), "DB", 0, 15_000)
	if err != nil {
		t.Fatal(err)
	}

	spec := sweep.Spec{
		Name:          "dist-replay",
		Schemes:       []string{"discontinuity"},
		Workloads:     []string{"trace:" + man.ID},
		Cores:         []int{1},
		TableEntries:  []int{256, 512, 1024, 2048},
		PrefetchAhead: []int{2, 4},
		WarmInstrs:    10_000,
		MeasureInstrs: 20_000,
		Seed:          1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	client := dist.NewClient(srv.URL)
	client.Retry = dist.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	v, err := client.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	const numWorkers = 2
	caches := make([]*corpus.Store, numWorkers)
	delivered := make([]atomic.Int64, numWorkers)
	done := make(chan struct{}, numWorkers)
	for i := 0; i < numWorkers; i++ {
		cache, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = cache
		w := &dist.Worker{
			Coordinator:  client,
			Name:         fmt.Sprintf("fetcher-%d", i),
			PollInterval: 20 * time.Millisecond,
			Corpus:       cache,
		}
		idx := i
		w.OnPoint = func(sweep.PointResult) { delivered[idx].Add(1) }
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(workerCtx)
		}()
	}

	final, err := s.Dist().Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	stopWorkers()
	for i := 0; i < numWorkers; i++ {
		<-done
	}

	if final.State != dist.SweepCompleted || final.Completed != v.Total {
		t.Fatalf("sweep ended %s with %d/%d points (%s)", final.State, final.Completed, v.Total, final.Error)
	}
	// Zero duplicates: exactly one counted delivery per grid point.
	if snap := s.Dist().Snapshot(); snap.PointsCompleted != uint64(v.Total) {
		t.Fatalf("%d point deliveries counted, want exactly %d", snap.PointsCompleted, v.Total)
	}
	// Zero gaps: the journal holds every point's key.
	j, err := sweep.OpenJournal(filepath.Join(cfg.ResultDir, "sweeps", v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := j.Len(); err != nil || n != v.Total {
		t.Fatalf("journal holds %d points (err %v), want %d", n, err, v.Total)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		key, err := p.Key(spec.WarmInstrs, spec.MeasureInstrs, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := j.Get(key); !ok {
			t.Fatalf("point %d missing from journal", p.Index)
		} else if res.IPC <= 0 || res.Instructions == 0 {
			t.Fatalf("point %d journaled empty: %+v", p.Index, res)
		}
	}
	// Every worker that delivered points must have fetched and cached
	// the container by its hash first.
	sawWork := false
	for i := 0; i < numWorkers; i++ {
		if delivered[i].Load() > 0 {
			sawWork = true
			if !caches[i].Has(man.ID) {
				t.Fatalf("worker %d delivered %d points without caching the trace", i, delivered[i].Load())
			}
			if err := caches[i].Verify(man.ID); err != nil {
				t.Fatalf("worker %d cached a corrupt copy: %v", i, err)
			}
		}
	}
	if !sawWork {
		t.Fatal("no worker delivered any points")
	}
}

// TestFederatedReplaySweepMatchesLocal is the federation e2e: two
// share-nothing daemons, the corpus entry ingested only on A, and the
// same trace-pinned sweep run on both. B resolves the trace by pulling
// chunks from A (its only corpus peer) and its journal must hold the
// identical point set — zero missing, zero duplicated, every payload
// field equal to A's local run.
func TestFederatedReplaySweepMatchesLocal(t *testing.T) {
	cfgA := testConfig(t)
	cfgA.ResultDir = t.TempDir()
	sA, srvA := newTestServer(t, cfgA)

	prog := workload.MustBuildProgram(workload.DB(), 0)
	man, err := sA.Corpus().Capture(workload.NewGenerator(prog, 1), "DB", 0, 15_000)
	if err != nil {
		t.Fatal(err)
	}

	spec := sweep.Spec{
		Name:          "fed-e2e",
		Schemes:       []string{"discontinuity"},
		Workloads:     []string{"trace:" + man.ID},
		Cores:         []int{1},
		TableEntries:  []int{256, 512},
		WarmInstrs:    10_000,
		MeasureInstrs: 20_000,
		Seed:          1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Reference run on A, replaying from its local store.
	vA, err := sA.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if vA, err = sA.WaitSweep(ctx, vA.ID); err != nil || vA.State != SweepCompleted {
		t.Fatalf("local sweep: %v (state %s, %s)", err, vA.State, vA.Error)
	}

	// Daemon B starts with an empty store and knows A only as a
	// federation peer.
	cfgB := testConfig(t)
	cfgB.ResultDir = t.TempDir()
	cfgB.CorpusPeers = []string{srvA.URL}
	sB := newTestService(t, cfgB)
	if sB.Corpus().Has(man.ID) {
		t.Fatal("daemon B must start share-nothing")
	}

	vB, err := sB.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if vB.ID != vA.ID {
		t.Fatalf("sweep identity diverged: A %s, B %s", vA.ID, vB.ID)
	}
	if vB, err = sB.WaitSweep(ctx, vB.ID); err != nil || vB.State != SweepCompleted {
		t.Fatalf("federated sweep: %v (state %s, %s)", err, vB.State, vB.Error)
	}

	// B adopted the entry through chunk federation, verified.
	got, err := sB.Corpus().Get(man.ID)
	if err != nil {
		t.Fatalf("B never adopted the trace: %v", err)
	}
	if got.Source != "federate" {
		t.Fatalf("B's entry source = %q, want federate", got.Source)
	}
	if err := sB.Corpus().Verify(man.ID); err != nil {
		t.Fatalf("B's federated copy fails verification: %v", err)
	}

	// Journals: same length, every expanded key present on both sides,
	// every payload field identical.
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	jA, err := sweep.OpenJournal(filepath.Join(cfgA.ResultDir, "sweeps", vA.ID))
	if err != nil {
		t.Fatal(err)
	}
	jB, err := sweep.OpenJournal(filepath.Join(cfgB.ResultDir, "sweeps", vB.ID))
	if err != nil {
		t.Fatal(err)
	}
	if nA, err := jA.Len(); err != nil || nA != len(points) {
		t.Fatalf("A journal holds %d points (err %v), want %d", nA, err, len(points))
	}
	if nB, err := jB.Len(); err != nil || nB != len(points) {
		t.Fatalf("B journal holds %d points (err %v), want %d", nB, err, len(points))
	}
	for _, p := range points {
		key, err := p.Key(spec.WarmInstrs, spec.MeasureInstrs, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		a, okA := jA.Get(key)
		b, okB := jB.Get(key)
		if !okA || !okB {
			t.Fatalf("point %d missing (A %v, B %v)", p.Index, okA, okB)
		}
		if a.IPC != b.IPC || a.L1IMissPerInstr != b.L1IMissPerInstr ||
			a.L2IMissPerInstr != b.L2IMissPerInstr || a.PrefetchAccuracy != b.PrefetchAccuracy ||
			a.PrefetchIssued != b.PrefetchIssued || a.PrefetchUseful != b.PrefetchUseful ||
			a.Instructions != b.Instructions || a.Cycles != b.Cycles ||
			a.OffChipTransfers != b.OffChipTransfers {
			t.Fatalf("point %d diverged:\nlocal:     %+v\nfederated: %+v", p.Index, a, b)
		}
	}
}

// TestCorpusSelectSweepAxisEndToEnd drives a corpus:select(...) workload
// axis through the HTTP sweep path: the daemon expands the selector
// against its fingerprint index before validation, so the launched
// sweep (and its content-derived id) pins sorted trace:<id> workloads.
func TestCorpusSelectSweepAxisEndToEnd(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s, srv := newTestServer(t, cfg)

	db, err := s.Corpus().Capture(workload.NewGenerator(workload.MustBuildProgram(workload.DB(), 0), 1), "DB", 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	web, err := s.Corpus().Capture(workload.NewGenerator(workload.MustBuildProgram(workload.Web(), 0), 1), "Web", 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(sweep.Spec{
		Name:          "sel-e2e",
		Schemes:       []string{"none"},
		Workloads:     []string{"corpus:select(name=DB)"},
		Cores:         []int{1},
		WarmInstrs:    10_000,
		MeasureInstrs: 20_000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v SweepView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.State != SweepCompleted {
		t.Fatalf("sweep state = %s (%s)", v.State, v.Error)
	}
	if len(v.Spec.Workloads) != 1 || v.Spec.Workloads[0] != "trace:"+db.ID {
		t.Fatalf("selector expanded to %v, want [trace:%s]", v.Spec.Workloads, db.ID)
	}

	// Determinism: resubmitting the same selector lands on the same
	// content-derived sweep (the daemon attaches, not recomputes).
	resp, err = http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v2 SweepView
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v2.ID != v.ID {
		t.Fatalf("resubmit sweep id %s, want %s", v2.ID, v.ID)
	}

	// A selector matching both entries expands to the sorted id pair.
	wide, err := s.SubmitSweep(sweep.Spec{
		Name:          "sel-wide",
		Schemes:       []string{"none"},
		Workloads:     []string{"corpus:select(instructions>0)"},
		Cores:         []int{1},
		WarmInstrs:    10_000,
		MeasureInstrs: 20_000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{db.ID, web.ID}
	sort.Strings(wantIDs)
	if len(wide.Spec.Workloads) != 2 ||
		wide.Spec.Workloads[0] != "trace:"+wantIDs[0] ||
		wide.Spec.Workloads[1] != "trace:"+wantIDs[1] {
		t.Fatalf("wide selector expanded to %v, want sorted [trace:%s trace:%s]",
			wide.Spec.Workloads, wantIDs[0], wantIDs[1])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if w, err := s.WaitSweep(ctx, wide.ID); err != nil || w.State != SweepCompleted {
		t.Fatalf("wide sweep: %v (state %s)", err, w.State)
	}

	// A selector matching nothing is a submission error, not an empty
	// sweep.
	if _, err := s.SubmitSweep(sweep.Spec{
		Name:      "sel-empty",
		Schemes:   []string{"none"},
		Workloads: []string{"corpus:select(name=NOPE)"},
		Cores:     []int{1},
	}); err == nil || !strings.Contains(err.Error(), "selects no corpus entries") {
		t.Fatalf("empty selector err = %v", err)
	}
}

// TestCorpusGCRootedBySweepJournals exercises the daemon-level GC
// policy: chunks of a deleted corpus entry survive as long as a sweep
// journal's spec.meta pins the trace id, and are reclaimed once the
// journal is gone.
func TestCorpusGCRootedBySweepJournals(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	cfg.CorpusGCGrace = -1 // collect immediately, no mtime grace
	s := newTestService(t, cfg)

	man, err := s.Corpus().Capture(workload.NewGenerator(workload.MustBuildProgram(workload.DB(), 0), 1), "DB", 0, 15_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	v, err := s.SubmitSweep(sweep.Spec{
		Name:          "gc-pin",
		Schemes:       []string{"none"},
		Workloads:     []string{"trace:" + man.ID},
		Cores:         []int{1},
		WarmInstrs:    10_000,
		MeasureInstrs: 20_000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, err = s.WaitSweep(ctx, v.ID); err != nil || v.State != SweepCompleted {
		t.Fatalf("pin sweep: %v (state %s)", err, v.State)
	}

	// Delete the entry: its chunks are unreferenced by any manifest but
	// still pinned by the completed sweep's spec.meta.
	if err := s.Corpus().Delete(man.ID); err != nil {
		t.Fatal(err)
	}
	st, err := s.RunCorpusGC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 || st.Live == 0 {
		t.Fatalf("GC with journal pin: %+v (must delete nothing)", st)
	}

	// Drop the journal; the next pass reclaims every orphan.
	if err := os.RemoveAll(filepath.Join(cfg.ResultDir, "sweeps")); err != nil {
		t.Fatal(err)
	}
	st, err = s.RunCorpusGC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted == 0 || st.Live != 0 || st.Reclaimed == 0 {
		t.Fatalf("GC after journal removal: %+v (must reclaim orphans)", st)
	}

	// The daemon's metrics surface both passes.
	var buf bytes.Buffer
	s.WriteCorpusProm(&buf)
	prom := buf.String()
	for _, want := range []string{"iprefetchd_corpus_gc_runs_total 2", "iprefetchd_corpus_gc_deleted_total", "iprefetchd_corpus_dedup_ratio"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("metrics missing %q:\n%s", want, prom)
		}
	}
}
