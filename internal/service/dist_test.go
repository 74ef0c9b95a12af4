package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sweep"
)

func distSweepSpec() sweep.Spec {
	return sweep.Spec{
		Name:          "svc-dist",
		Schemes:       []string{"discontinuity"},
		Workloads:     []string{"DB"},
		Cores:         []int{1},
		TableEntries:  []int{128, 256},
		WarmInstrs:    20_000,
		MeasureInstrs: 50_000,
		Seed:          1,
	}
}

// TestSweepSubmissionSaturates pins the back-pressure contract: past
// MaxActiveSweeps the service refuses new sweeps with
// ErrSweepsSaturated, mapped to 503 + Retry-After over HTTP.
func TestSweepSubmissionSaturates(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxActiveSweeps = 1
	s, srv := newTestServer(t, cfg)

	first, err := s.SubmitSweep(sweep.Spec{
		Schemes:      []string{"discontinuity"},
		Workloads:    []string{"DB", "Web", "jApp", "TPC-W"},
		Cores:        []int{1},
		TableEntries: []int{128, 256, 512},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A *different* spec must bounce while the first still runs (the
	// identical spec would dedup-rejoin instead).
	_, err = s.SubmitSweep(sweep.Spec{
		Schemes:   []string{"none"},
		Workloads: []string{"DB"},
		Cores:     []int{1},
	})
	if !errors.Is(err, ErrSweepsSaturated) {
		t.Fatalf("second sweep past the cap: %v, want ErrSweepsSaturated", err)
	}

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"schemes":["nl-miss"],"workloads":["Web"],"cores":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated HTTP submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	if s.metrics.Snapshot().SweepsSaturated < 2 {
		t.Fatalf("saturation counter = %+v, want >= 2", s.metrics.Snapshot().SweepsSaturated)
	}

	// The cap frees up once the running sweep finishes.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := s.WaitSweep(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSweep(sweep.Spec{
		Schemes:   []string{"none"},
		Workloads: []string{"DB"},
		Cores:     []int{1},
	}); err != nil {
		t.Fatalf("submit after the cap freed: %v", err)
	}
}

// TestDistEndpointsThroughDaemon drives a real distributed sweep
// end-to-end through the daemon's HTTP surface: client-submitted spec,
// an in-process worker pulling leases, artifacts downloaded back, and
// the /metrics exposition carrying the dist series.
func TestDistEndpointsThroughDaemon(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s, srv := newRemoteOnlyServer(t, cfg)

	client := dist.NewClient(srv.URL)
	client.Retry = dist.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, err := client.SubmitSweep(ctx, distSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != dist.SweepRunning || v.Total == 0 {
		t.Fatalf("submitted sweep view = %+v", v)
	}

	w := &dist.Worker{Coordinator: client, Name: "in-process", PollInterval: 20 * time.Millisecond}
	workerCtx, stopWorker := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(workerCtx)
	}()

	final, err := s.Dist().Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	stopWorker()
	<-done
	if final.State != dist.SweepCompleted || final.Completed != v.Total {
		t.Fatalf("sweep ended %s with %d/%d points (%s)", final.State, final.Completed, v.Total, final.Error)
	}

	// Progress and artifacts are readable back through the same client.
	got, err := client.Sweep(ctx, v.ID)
	if err != nil || got.State != dist.SweepCompleted {
		t.Fatalf("progress readback = %+v, %v", got, err)
	}
	data, err := client.Artifact(ctx, v.ID, "results.json")
	if err != nil || len(data) == 0 {
		t.Fatalf("artifact download: %d bytes, %v", len(data), err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"iprefetchd_sweeps_running",
		"iprefetchd_sweeps_saturated_rejections_total",
		"iprefetchd_dist_leases_granted_total",
		"iprefetchd_dist_points_completed_total",
		`iprefetchd_dist_worker_points_total{worker="` + w.ID() + `/in-process"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
