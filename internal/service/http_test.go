package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, cfg)
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

// newRemoteOnlyServer is newTestServer without the in-process sweep
// worker, so only remote dist workers execute sweeps.
func newRemoteOnlyServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := startTestService(t, cfg, false)
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

func postJob(t *testing.T, base string, body string, wait bool) (*http.Response, JobView) {
	t.Helper()
	url := base + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return resp, v
}

// TestHTTPJobLifecycle walks the whole API: submit, poll to completion,
// re-submit for a memo/store hit, and check healthz and metrics see it.
func TestHTTPJobLifecycle(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	_, srv := newTestServer(t, cfg)

	body := `{"workload":"DB","cores":1,"scheme":"nl-miss"}`
	resp, v := postJob(t, srv.URL, body, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	if v.State != StateQueued {
		t.Fatalf("state = %s, want queued", v.State)
	}

	// Poll until terminal.
	var got JobView
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET job status = %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if got.State != StateQueued && got.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.State != StateCompleted {
		t.Fatalf("state = %s (err %q), want completed", got.State, got.Error)
	}
	if got.Summary == nil || got.Summary.IPC <= 0 {
		t.Fatalf("bad summary: %+v", got.Summary)
	}

	// Same spec again: engine memo (or store) answers; ?wait returns 200
	// with the finished job.
	resp2, v2 := postJob(t, srv.URL, body, true)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-POST status = %d, want 200", resp2.StatusCode)
	}
	if v2.State != StateCompleted || v2.Summary.IPC != got.Summary.IPC {
		t.Fatalf("re-POST: state=%s ipc=%v, want completed ipc=%v", v2.State, v2.Summary, got.Summary.IPC)
	}

	// List includes both jobs.
	r, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Jobs) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(list.Jobs))
	}

	// healthz reports the counters.
	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string   `json:"status"`
		Jobs   Snapshot `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if health.Status != "ok" || health.Jobs.Completed < 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// metrics exposition carries the counters and histogram.
	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, r)
	for _, want := range []string{
		"iprefetchd_jobs_submitted_total 2",
		"iprefetchd_engine_simulations_total 1",
		"iprefetchd_job_duration_seconds_count 1",
		"iprefetchd_workers 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func readAll(t *testing.T, r *http.Response) string {
	t.Helper()
	defer r.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestHTTPValidationAndErrors checks the error surfaces: bad JSON, bad
// spec, unknown job, unknown figure.
func TestHTTPValidationAndErrors(t *testing.T) {
	_, srv := newTestServer(t, testConfig(t))

	resp, _ := postJob(t, srv.URL, `{"cores":`, false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, srv.URL, `{"workload":"DB","cores":1,"scheme":"bogus"}`, false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scheme: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, srv.URL, `{"workload":"DB","cores":1,"scheme":"none","surprise":1}`, false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	r, err := http.Get(srv.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}

	r, err = http.Get(srv.URL + "/v1/figures/zz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure: status %d, want 404", r.StatusCode)
	}
}

// TestHTTPFigureEndpoint runs the cheapest real figure end to end.
func TestHTTPFigureEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs several simulations")
	}
	_, srv := newTestServer(t, testConfig(t))
	r, err := http.Get(srv.URL + "/v1/figures/1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("figure status = %d", r.StatusCode)
	}
	var fig struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Tables []struct {
			Title string     `json:"Title"`
			Rows  [][]string `json:"Rows"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(r.Body).Decode(&fig); err != nil {
		t.Fatal(err)
	}
	if fig.ID != "1" || len(fig.Tables) == 0 || len(fig.Tables[0].Rows) == 0 {
		t.Fatalf("figure payload = %+v", fig)
	}
}

// TestHTTPQueueFullReturns503 saturates a tiny queue over HTTP.
func TestHTTPQueueFullReturns503(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	_, srv := newTestServer(t, cfg)
	slow := `{"workload":"DB","cores":1,"scheme":"%s","warm_instrs":50000000,"measure_instrs":50000000,"timeout_ms":100}`
	var saw503 bool
	for _, scheme := range []string{"none", "nl-always", "nl-miss", "n4l-tagged"} {
		resp, _ := postJob(t, srv.URL, fmt.Sprintf(slow, scheme), false)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			saw503 = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if !saw503 {
		t.Fatal("never saw 503 with workers=1 queue=1")
	}
}
