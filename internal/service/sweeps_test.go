package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/sweep"
)

func testSweepSpec() sweep.Spec {
	return sweep.Spec{
		Name:         "svc-test",
		Schemes:      []string{"discontinuity", "nl-miss"},
		Workloads:    []string{"DB", "TPC-W"},
		Cores:        []int{1},
		TableEntries: []int{512, 1024},
	}
}

func waitSweepDone(t *testing.T, s *Service, id string) SweepView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	v, err := s.WaitSweep(ctx, id)
	if err != nil {
		t.Fatalf("WaitSweep(%s): %v", id, err)
	}
	return v
}

func TestSubmitSweepRunsToCompletion(t *testing.T) {
	s := newTestService(t, testConfig(t))
	v, err := s.SubmitSweep(testSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != SweepRunning || v.Total != 8 {
		t.Fatalf("submitted sweep = %+v, want running with 8 points", v)
	}
	got := waitSweepDone(t, s, v.ID)
	if got.State != SweepCompleted {
		t.Fatalf("state = %s (err %q), want completed", got.State, got.Error)
	}
	if got.Completed != got.Total {
		t.Fatalf("completed %d of %d points", got.Completed, got.Total)
	}
	for _, name := range []string{"results.json", "results.csv", "pareto.csv"} {
		if _, _, ok := s.SweepArtifact(v.ID, name); !ok {
			t.Errorf("artifact %s missing (have %v)", name, got.Artifacts)
		}
	}

	// Resubmitting the identical spec attaches to the finished sweep.
	again, err := s.SubmitSweep(testSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != v.ID || again.State != SweepCompleted {
		t.Fatalf("resubmit = %+v, want the completed sweep %s", again, v.ID)
	}
	if snap := s.Metrics().Snapshot(); snap.SweepsCompleted != 1 || snap.SweepPoints != 8 {
		t.Fatalf("metrics = %+v, want 1 completed sweep / 8 points", snap)
	}
}

// TestSweepResumesAcrossServiceRestart is the daemon-restart story: the
// first service dies mid-sweep, a second one sharing the result dir
// picks the sweep up and replays every checkpointed point instead of
// simulating it.
func TestSweepResumesAcrossServiceRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSweepSpec()

	cfg := testConfig(t)
	cfg.ResultDir = dir
	cfg.Workers = 1
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let a couple of points checkpoint, then kill the service hard
	// (short deadline forces cancellation of the in-flight sweep).
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := s1.Sweep(v.ID)
		if cur.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never completed 2 points")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	s1.Shutdown(ctx)
	cancel()
	killed := waitSweepDone(t, s1, v.ID)
	if killed.State == SweepCompleted && killed.Completed == killed.Total {
		t.Skip("sweep finished before shutdown could interrupt it")
	}

	s2 := newTestService(t, cfg)
	v2, err := s2.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v.ID {
		t.Fatalf("restarted sweep id %s != %s (identity must be content-derived)", v2.ID, v.ID)
	}
	got := waitSweepDone(t, s2, v2.ID)
	if got.State != SweepCompleted {
		t.Fatalf("resumed sweep state = %s (err %q)", got.State, got.Error)
	}
	if got.Recovered == 0 || !got.Resumed {
		t.Fatalf("resumed sweep recovered %d points, want > 0: %+v", got.Recovered, got)
	}
	// Zero recomputation: the second service's engines simulated only
	// the points the journal lacked.
	if c := s2.EngineCounters(); c.Simulations != uint64(got.Total-got.Recovered) {
		t.Fatalf("restart simulated %d points, want %d (recovered %d of %d)",
			c.Simulations, got.Total-got.Recovered, got.Recovered, got.Total)
	}
}

func TestSubmitSweepRejectsInvalidSpecs(t *testing.T) {
	s := newTestService(t, testConfig(t))
	for name, spec := range map[string]sweep.Spec{
		"empty":          {},
		"unknown scheme": {Schemes: []string{"bogus"}, Workloads: []string{"DB"}},
	} {
		if _, err := s.SubmitSweep(spec); err == nil {
			t.Errorf("%s: SubmitSweep accepted %+v", name, spec)
		}
	}
}

// TestHTTPSweepLifecycle is the end-to-end API walk the subsystem
// promises: POST a sweep, poll progress, download artifacts.
func TestHTTPSweepLifecycle(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	_, srv := newTestServer(t, cfg)

	body, err := json.Marshal(testSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var v SweepView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps status = %d, want 202", resp.StatusCode)
	}
	if v.Total != 8 || v.State != SweepRunning {
		t.Fatalf("sweep view = %+v", v)
	}

	// Artifacts 409 while running (unless it already finished).
	r, err := http.Get(srv.URL + "/v1/sweeps/" + v.ID + "/artifacts/results.csv")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict && r.StatusCode != http.StatusOK {
		t.Fatalf("artifact during run: status %d, want 409 (or 200 if already done)", r.StatusCode)
	}

	// Poll progress to completion.
	var got SweepView
	deadline := time.Now().Add(120 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/sweeps/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET sweep status = %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if got.State != SweepRunning {
			break
		}
		if got.Completed < 0 || got.Completed > got.Total {
			t.Fatalf("progress out of range: %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck at %d/%d", got.Completed, got.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.State != SweepCompleted || got.Completed != got.Total {
		t.Fatalf("final sweep view = %+v", got)
	}

	// Download and parse both artifact formats.
	r, err = http.Get(srv.URL + "/v1/sweeps/" + v.ID + "/artifacts/results.json")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("results.json: status %d type %s", r.StatusCode, r.Header.Get("Content-Type"))
	}
	var art sweep.Artifact
	if err := json.NewDecoder(r.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(art.Points) != got.Total {
		t.Fatalf("JSON artifact has %d points, want %d", len(art.Points), got.Total)
	}
	for _, row := range art.Points {
		if row.IPC <= 0 {
			t.Fatalf("artifact row missing metrics: %+v", row)
		}
		if !row.Baseline && row.Speedup <= 0 {
			t.Fatalf("artifact row missing speedup: %+v", row)
		}
	}
	if len(art.Pareto) != 2 {
		t.Fatalf("JSON artifact pareto has %d sizes, want 2", len(art.Pareto))
	}

	r, err = http.Get(srv.URL + "/v1/sweeps/" + v.ID + "/artifacts/results.csv")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("results.csv status = %d", r.StatusCode)
	}
	table, err := stats.ReadCSV(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != got.Total {
		t.Fatalf("CSV artifact has %d rows, want %d", len(table.Rows), got.Total)
	}

	// Unknown artifact and unknown sweep 404.
	r, err = http.Get(srv.URL + "/v1/sweeps/" + v.ID + "/artifacts/bogus.bin")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact: status %d, want 404", r.StatusCode)
	}
	r, err = http.Get(srv.URL + "/v1/sweeps/sweep-nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d, want 404", r.StatusCode)
	}

	// List shows the sweep; sweep counters surfaced in /metrics.
	r, err = http.Get(srv.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sweeps []SweepView `json:"sweeps"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != v.ID {
		t.Fatalf("sweep list = %+v", list.Sweeps)
	}
	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, r)
	for _, want := range []string{
		"iprefetchd_sweeps_completed_total 1",
		"iprefetchd_sweeps_running 0",
		"iprefetchd_sweep_points_total 8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// ?wait=1 on the identical spec returns the finished sweep at once.
	resp, err = http.Post(srv.URL+"/v1/sweeps?wait=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var again SweepView
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != v.ID || again.State != SweepCompleted {
		t.Fatalf("wait resubmit: status %d view %+v", resp.StatusCode, again)
	}
}

func TestHTTPSweepValidation(t *testing.T) {
	_, srv := newTestServer(t, testConfig(t))
	for name, body := range map[string]string{
		"truncated":      `{"schemes":`,
		"unknown field":  `{"schemes":["none"],"workloads":["DB"],"surprise":1}`,
		"unknown scheme": `{"schemes":["bogus"],"workloads":["DB"]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestForkSweepWarmsOncePerGroup: the in-process worker's leases follow
// warm groups, so a fork sweep on two workers runs exactly one
// simulation per point plus one warm-up per warm group.
func TestForkSweepWarmsOncePerGroup(t *testing.T) {
	s := newTestService(t, testConfig(t))
	spec := sweep.Spec{
		Schemes:      []string{"discontinuity", "nl-miss"},
		Workloads:    []string{"DB"},
		Cores:        []int{1},
		Bypass:       []bool{false, true},
		TableEntries: []int{128, 256, 512},
		ForkWarm:     true,
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]bool{}
	for _, p := range points {
		rs, err := p.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		groups[rs.WarmKey()] = true
	}
	v, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitSweepDone(t, s, v.ID); got.State != SweepCompleted {
		t.Fatalf("fork sweep ended %s: %s", got.State, got.Error)
	}
	if c := s.EngineCounters(); c.Simulations != uint64(len(points)+len(groups)) {
		t.Fatalf("fork sweep ran %d simulations, want %d points + %d warm groups",
			c.Simulations, len(points), len(groups))
	}
}

// TestShutdownFinishesRunningSweeps: a drain with a live context lets
// a running sweep complete before the service stops.
func TestShutdownFinishesRunningSweeps(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.SubmitSweep(testSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Sweep(v.ID); got.State != SweepCompleted || got.Completed != got.Total {
		t.Fatalf("sweep after drain: %s with %d/%d points", got.State, got.Completed, got.Total)
	}
}

// TestLocalSweepFailsWithPointError: a point that fails every time on
// the daemon's own engines fails its sweep at once with that point's
// error, and the in-process worker stays the one worker record.
func TestLocalSweepFailsWithPointError(t *testing.T) {
	s := newTestService(t, testConfig(t))
	spec := testSweepSpec()
	spec.Workloads = []string{"DB", "trace:" + strings.Repeat("0", 64)}
	v, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitSweepDone(t, s, v.ID)
	if got.State != SweepFailed || !strings.Contains(got.Error, strings.Repeat("0", 12)) {
		t.Fatalf("sweep with a failing point ended %s: %q, want failed with the point's trace error", got.State, got.Error)
	}
	snap := s.Dist().Snapshot()
	if snap.WorkersRegistered != 1 || snap.WorkersQuarantined != 0 || snap.PointsReinjected != 0 {
		t.Fatalf("local failure left %d worker records (%d quarantined, %d points reinjected), want 1, 0, 0",
			snap.WorkersRegistered, snap.WorkersQuarantined, snap.PointsReinjected)
	}
}
