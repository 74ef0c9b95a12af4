package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/dist"
	"repro/internal/sweep"
)

// smallSweepSpec is a 4-point sweep cheap enough for e2e streaming
// tests.
func smallSweepSpec() sweep.Spec {
	return sweep.Spec{
		Schemes:   []string{"none", "nl-miss"},
		Workloads: []string{"DB", "TPC-W"},
		Cores:     []int{1},
	}
}

// openSSE connects an event stream and returns its frame reader.
func openSSE(t *testing.T, url, lastEventID string) (*http.Response, *bufio.Reader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE connect status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	return resp, bufio.NewReader(resp.Body)
}

// readUntil consumes SSE frames until one of type want arrives,
// returning every frame read (including it).
func readUntil(t *testing.T, br *bufio.Reader, want string) []ctlplane.Event {
	t.Helper()
	var events []ctlplane.Event
	for {
		ev, err := ctlplane.ReadSSE(br)
		if err != nil {
			t.Fatalf("stream ended before %q: %v (got %d events)", want, err, len(events))
		}
		events = append(events, ev)
		if ev.Type == want {
			return events
		}
	}
}

// TestSSEDeliversEveryPointAndMatchesJournal submits a sweep, streams
// its events, and cross-checks every point-completed event against the
// durable journal: same count, every streamed key checkpointed.
func TestSSEDeliversEveryPointAndMatchesJournal(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	cfg.SSEHeartbeat = 50 * time.Millisecond
	s, srv := newTestServer(t, cfg)

	v, err := s.SubmitSweep(smallSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, br := openSSE(t, srv.URL+"/v1/sweeps/"+v.ID+"/events", "")

	events := readUntil(t, br, "sweep-completed")
	if events[0].Type != "snapshot" || events[0].ID != 0 {
		t.Fatalf("first frame must be the unnumbered snapshot, got %+v", events[0])
	}
	keys := map[string]int{}
	sawArtifacts := false
	for _, ev := range events {
		switch ev.Type {
		case "point-completed":
			var p struct {
				Key   string `json:"key"`
				Total int    `json:"total"`
			}
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatalf("point payload: %v", err)
			}
			if ev.ID == 0 {
				t.Fatal("point-completed events must be numbered (resumable)")
			}
			keys[p.Key]++
		case "artifact-ready":
			sawArtifacts = true
		}
	}
	if len(keys) != v.Total {
		t.Fatalf("streamed %d distinct points, sweep has %d", len(keys), v.Total)
	}
	if !sawArtifacts {
		t.Fatal("no artifact-ready event before sweep-completed")
	}
	j, err := sweep.OpenJournal(filepath.Join(cfg.ResultDir, "sweeps", v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := j.Len(); n != v.Total {
		t.Fatalf("journal holds %d points, want %d", n, v.Total)
	}
	for k, count := range keys {
		if count != 1 {
			t.Fatalf("point %s streamed %d times", k, count)
		}
		if _, ok := j.Get(k); !ok {
			t.Fatalf("streamed point %s missing from journal", k)
		}
	}

	// The stream stays open after completion; heartbeats keep it alive.
	hb := readUntil(t, br, "heartbeat")
	if last := hb[len(hb)-1]; last.ID != 0 {
		t.Fatalf("heartbeats must be unnumbered, got id %d", last.ID)
	}
}

// TestSSEResumeFromLastEventID reconnects with a Last-Event-ID cursor
// and expects the replay to pick up exactly after it.
func TestSSEResumeFromLastEventID(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s, srv := newTestServer(t, cfg)

	v, err := s.SubmitSweep(smallSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := s.WaitSweep(ctx, v.ID); err != nil {
		t.Fatal(err)
	}

	// First connection sees the full numbered history.
	_, br := openSSE(t, srv.URL+"/v1/sweeps/"+v.ID+"/events", "")
	full := readUntil(t, br, "sweep-completed")
	var numbered []ctlplane.Event
	for _, ev := range full {
		if ev.ID != 0 {
			numbered = append(numbered, ev)
		}
	}
	if len(numbered) < 3 {
		t.Fatalf("want several numbered events, got %d", len(numbered))
	}

	// Resume after the second numbered event: replay starts at the third.
	cursor := numbered[1].ID
	_, br2 := openSSE(t, srv.URL+"/v1/sweeps/"+v.ID+"/events", fmt.Sprint(cursor))
	resumed := readUntil(t, br2, "sweep-completed")
	var resumedNumbered []ctlplane.Event
	for _, ev := range resumed {
		if ev.ID != 0 {
			resumedNumbered = append(resumedNumbered, ev)
		}
	}
	if len(resumedNumbered) != len(numbered)-2 {
		t.Fatalf("resume replayed %d events, want %d", len(resumedNumbered), len(numbered)-2)
	}
	if resumedNumbered[0].ID != cursor+1 {
		t.Fatalf("resume started at id %d, want %d", resumedNumbered[0].ID, cursor+1)
	}
}

// TestJobEventStream follows one job's lifecycle over SSE.
func TestJobEventStream(t *testing.T) {
	cfg := testConfig(t)
	s, srv := newTestServer(t, cfg)
	v, err := s.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, br := openSSE(t, srv.URL+"/v1/jobs/"+v.ID+"/events", "")
	events := readUntil(t, br, "job-completed")
	var types []string
	for _, ev := range events {
		types = append(types, ev.Type)
	}
	got := strings.Join(types, ",")
	if !strings.Contains(got, "job-queued") || !strings.HasSuffix(got, "job-completed") {
		t.Fatalf("lifecycle stream = %s", got)
	}
}

// TestAdmissionControlHTTP drives the token-bucket limiter through the
// HTTP edge: over-quota clients get 429 + Retry-After, keyed clients
// get their own quota, admitted work is unaffected by the shedding
// around it, and the limiter's shed counter equals the 429s clients
// saw.
func TestAdmissionControlHTTP(t *testing.T) {
	cfg := testConfig(t)
	s, srv := newTestServer(t, cfg)
	s.EnableAdmission(ctlplane.QuotaConfig{
		Default: ctlplane.Quota{PerSec: 0.001, Burst: 2}, // effectively: 2 then shed
		Clients: map[string]ctlplane.Quota{"gold-token": {PerSec: -1}},
	})

	var seen429 uint64
	post := func(apiKey, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if apiKey != "" {
			req.Header.Set("X-API-Key", apiKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode == http.StatusTooManyRequests {
			seen429++
		}
		return resp
	}

	// Burst of 2 admits, third sheds with a Retry-After hint.
	var admittedID string
	for i := 0; i < 2; i++ {
		resp := post("", fmt.Sprintf(`{"workload":"DB","cores":1,"scheme":"none","seed":%d}`, i+2))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("admitted request %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			var v JobView
			json.NewDecoder(resp.Body).Decode(&v)
			admittedID = v.ID
		}
	}
	resp := post("", `{"workload":"DB","cores":1,"scheme":"none","seed":9}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 must carry Retry-After, got %q", ra)
	}

	// A keyed client with its own (unlimited) quota is not affected.
	for i := 0; i < 10; i++ {
		resp := post("gold-token", fmt.Sprintf(`{"workload":"Web","cores":1,"scheme":"none","seed":%d}`, i+2))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("gold request %d: status %d", i, resp.StatusCode)
		}
	}

	// Shedding around it did not disturb admitted work.
	if got := waitDone(t, s, admittedID); got.State != StateCompleted {
		t.Fatalf("admitted job finished %s: %s", got.State, got.Error)
	}
	admitted, shed := s.Limiter().Counters()
	if admitted < 12 || shed < 1 {
		t.Fatalf("limiter counters: admitted=%d shed=%d", admitted, shed)
	}
	if shed != seen429 {
		t.Fatalf("limiter shed %d != client-observed 429s %d", shed, seen429)
	}

	// Hot reload: a fresh policy takes effect immediately.
	s.EnableAdmission(ctlplane.QuotaConfig{Default: ctlplane.Quota{PerSec: 100, Burst: 100}})
	if resp := post("", `{"workload":"DB","cores":1,"scheme":"none","seed":77}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-reload status = %d", resp.StatusCode)
	}
}

// TestDrainClosesStreamsWithShutdownEvent holds an SSE connection open
// across a drain: the client must receive a final "shutdown" event and
// a clean EOF instead of a hung or reset connection.
func TestDrainClosesStreamsWithShutdownEvent(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s, srv := newTestServer(t, cfg)
	v, err := s.SubmitSweep(smallSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, br := openSSE(t, srv.URL+"/v1/sweeps/"+v.ID+"/events", "")
	if ev, err := ctlplane.ReadSSE(br); err != nil || ev.Type != "snapshot" {
		t.Fatalf("first frame: %+v, %v", ev, err)
	}

	s.DrainStreams()

	// Everything up to EOF must end with the shutdown notice.
	var last ctlplane.Event
	for {
		ev, err := ctlplane.ReadSSE(br)
		if err != nil {
			break // EOF: handler returned, server closed the stream
		}
		last = ev
	}
	if last.Type != "shutdown" {
		t.Fatalf("final event before EOF = %q, want shutdown", last.Type)
	}
	if last.ID != 0 {
		t.Fatal("shutdown notice must be unnumbered")
	}

	// New subscriptions are refused while draining.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscribe while draining: status %d, want 503", resp.StatusCode)
	}

	// The underlying sweep still runs to completion; only streams ended.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if got, err := s.WaitSweep(ctx, v.ID); err != nil || got.State != SweepCompleted {
		t.Fatalf("sweep after drain: %+v, %v", got, err)
	}
}

// TestReplicaFailoverMidSweep is the control-plane failover e2e: two
// replicas share one data root, the lease owner dies mid-sweep (stops
// renewing without releasing, then hard-cancels its work), and the
// survivor must take over within the TTL, adopt the orphaned sweep
// from the shared journal, and finish it with zero missing and zero
// duplicated points.
func TestReplicaFailoverMidSweep(t *testing.T) {
	dataDir := t.TempDir()
	ttl := 400 * time.Millisecond

	cfgA := testConfig(t)
	cfgA.ResultDir = dataDir
	cfgA.Workers = 1 // slow enough to die mid-flight
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnableReplication("rep-a", "http://a.invalid", ttl); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, a, true)

	cfgB := testConfig(t)
	cfgB.ResultDir = dataDir
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	}()
	if err := b.EnableReplication("rep-b", "http://b.invalid", ttl); err != nil {
		t.Fatal(err)
	}

	// An 8-point sweep on one worker: the owner will not finish it
	// before we kill it.
	spec := smallSweepSpec()
	spec.PrefetchAhead = []int{1, 2}
	spec.Schemes = []string{"nl-miss", "discontinuity"}
	v, err := a.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := v.Total
	if total < 4 {
		t.Fatalf("sweep too small to interrupt: %d points", total)
	}

	// Wait for the first journaled point, then crash the owner: stop
	// lease renewal without release (a live lease a dead process holds)
	// and hard-cancel its in-flight work.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if sv, ok := a.Sweep(v.ID); ok && sv.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never completed a point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Replica().Abandon()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	a.Shutdown(canceled) // returns once the pool stops; journal writes are flushed

	interrupted, _ := a.Sweep(v.ID)
	if interrupted.Completed >= total {
		t.Skipf("owner finished all %d points before dying; nothing to fail over", total)
	}

	// The survivor must take over within ~one TTL of expiry and adopt
	// the orphan. Generous bound: the lease has at most one TTL left.
	takeoverDeadline := time.Now().Add(10 * ttl)
	for !b.Replica().IsLeader() {
		if time.Now().After(takeoverDeadline) {
			t.Fatal("survivor never took over the lease")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Adoption resubmits the sweep; it must finish every point.
	var final SweepView
	for {
		sv, ok := b.Sweep(v.ID)
		if ok && sv.State == SweepCompleted {
			final = sv
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("adopted sweep never completed: %+v", sv)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if b.SweepsAdopted() != 1 {
		t.Fatalf("survivor adopted %d sweeps, want 1", b.SweepsAdopted())
	}

	// Zero missing: the journal holds exactly one checkpoint per point.
	j, err := sweep.OpenJournal(filepath.Join(dataDir, "sweeps", v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := j.Len(); n != total {
		t.Fatalf("journal holds %d points after failover, want %d", n, total)
	}
	if final.Completed != total {
		t.Fatalf("survivor resolved %d/%d points", final.Completed, total)
	}
	// Zero duplicated work: the survivor recovered the owner's points
	// from the journal and simulated only the remainder.
	if final.Recovered < interrupted.Completed {
		t.Fatalf("survivor recovered %d points, owner had journaled at least %d",
			final.Recovered, interrupted.Completed)
	}
	if sims := b.EngineCounters().Simulations; int(sims)+final.Recovered != total {
		t.Fatalf("work conservation: %d simulated + %d recovered != %d total",
			sims, final.Recovered, total)
	}
}

// TestStaleOwnerCannotJournalAfterTakeover is the journal fence: an
// owner that stopped renewing finishes a point after the survivor has
// taken the lease and replayed the journal. The stale point must be
// neither journaled nor counted, while the point it journaled before
// the takeover is recovered by the survivor.
func TestStaleOwnerCannotJournalAfterTakeover(t *testing.T) {
	dataDir := t.TempDir()
	ttl := 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The owner runs no in-process worker: the test delivers its points.
	cfgA := testConfig(t)
	cfgA.ResultDir = dataDir
	a := startTestService(t, cfgA, false)
	if err := a.EnableReplication("rep-a", "http://a.invalid", ttl); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, a, true)
	cfgB := testConfig(t)
	cfgB.ResultDir = dataDir
	b := newTestService(t, cfgB)
	if err := b.EnableReplication("rep-b", "http://b.invalid", ttl); err != nil {
		t.Fatal(err)
	}

	v, err := a.SubmitSweep(smallSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	wk, err := a.Dist().Register(ctx, "stale")
	if err != nil {
		t.Fatal(err)
	}
	l, err := a.Dist().Acquire(ctx, wk.ID, 0)
	if err != nil || l == nil || len(l.Points) < 2 {
		t.Fatalf("acquire: %+v, %v", l, err)
	}
	// Results the owner fabricates carry a sentinel IPC, so the journal
	// shows whose entry it holds.
	const staleIPC = 1e6
	result := func(p sweep.Point) sweep.PointResult {
		key, err := p.Key(v.WarmInstrs, v.MeasureInstrs, v.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return sweep.PointResult{Key: key, Point: p, IPC: staleIPC, Instructions: 1, Cycles: 1}
	}
	if _, err := a.Dist().SubmitPoint(ctx, v.ID, wk.ID, result(l.Points[0])); err != nil {
		t.Fatalf("owner's point before the takeover: %v", err)
	}

	// The owner stops renewing; the survivor takes over and adopts the
	// sweep, replaying the one journaled point.
	a.Replica().Abandon()
	waitLeader(t, b, true)
	for b.SweepsAdopted() == 0 {
		if ctx.Err() != nil {
			t.Fatal("survivor never adopted the sweep")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The stale owner now finishes a second point.
	late := result(l.Points[1])
	if _, err := a.Dist().SubmitPoint(ctx, v.ID, wk.ID, late); !errors.Is(err, dist.ErrFenced) {
		t.Fatalf("stale owner's point after the takeover: %v, want dist.ErrFenced", err)
	}
	if got, held := a.Dist().Sweep(v.ID); held {
		t.Fatalf("stale owner still holds the fenced sweep: %s with %d points", got.State, got.Completed)
	}

	final, err := b.WaitSweep(ctx, v.ID)
	if err != nil || final.State != SweepCompleted || final.Completed != final.Total {
		t.Fatalf("adopted sweep: %+v, %v", final, err)
	}
	if final.Recovered != 1 {
		t.Fatalf("survivor recovered %d points, want the 1 journaled before the takeover", final.Recovered)
	}
	j, err := sweep.OpenJournal(filepath.Join(dataDir, "sweeps", v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := j.Len(); n != final.Total {
		t.Fatalf("journal holds %d points, want %d", n, final.Total)
	}
	if got, ok := j.Get(late.Key); !ok || got.IPC == staleIPC {
		t.Fatalf("journal entry of the late point: %+v (found %v), want the survivor's", got, ok)
	}
	// The former owner serves the sweep from the shared journal, as any
	// replica does, not from its fenced record.
	if got, ok := a.Sweep(v.ID); !ok || got.State != SweepCompleted || got.Completed != final.Total {
		t.Fatalf("former owner reads the sweep as %s with %d/%d points (found %v), want completed",
			got.State, got.Completed, final.Total, ok)
	}
}

// TestRemotePartialSweepAdoptedAfterOwnerDies: a sweep submitted over
// HTTP and partly run by a remote worker is adoptable like any other.
// The owner dies with it unfinished, and the survivor completes it from
// the journal with zero missing and zero duplicate points.
func TestRemotePartialSweepAdoptedAfterOwnerDies(t *testing.T) {
	dataDir := t.TempDir()
	ttl := 400 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfgA := testConfig(t)
	cfgA.ResultDir = dataDir
	a, srvA := newRemoteOnlyServer(t, cfgA)
	if err := a.EnableReplication("rep-a", srvA.URL, ttl); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, a, true)
	cfgB := testConfig(t)
	cfgB.ResultDir = dataDir
	b := newTestService(t, cfgB)
	if err := b.EnableReplication("rep-b", "http://b.invalid", ttl); err != nil {
		t.Fatal(err)
	}

	client := dist.NewClient(srvA.URL)
	client.Retry = dist.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	spec := smallSweepSpec()
	spec.PrefetchAhead = []int{1, 2}
	spec.Schemes = []string{"nl-miss", "discontinuity"}
	v, err := client.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// A remote worker delivers two points and dies.
	workerCtx, kill := context.WithCancel(ctx)
	var delivered atomic.Int32
	w := &dist.Worker{Coordinator: client, Name: "remote", PollInterval: 20 * time.Millisecond}
	w.OnPoint = func(sweep.PointResult) {
		if delivered.Add(1) == 2 {
			kill()
		}
	}
	w.Run(workerCtx)
	a.Replica().Abandon()
	canceled, stop := context.WithCancel(context.Background())
	stop()
	a.Shutdown(canceled)
	interrupted, _ := a.Sweep(v.ID)
	if interrupted.Completed == 0 || interrupted.Completed >= v.Total {
		t.Fatalf("remote worker left %d of %d points, want a strict partial", interrupted.Completed, v.Total)
	}

	waitLeader(t, b, true)
	var final SweepView
	for {
		if sv, ok := b.Sweep(v.ID); ok && sv.State == SweepCompleted {
			final = sv
			break
		}
		if ctx.Err() != nil {
			t.Fatal("adopted sweep never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if b.SweepsAdopted() != 1 {
		t.Fatalf("survivor adopted %d sweeps, want 1", b.SweepsAdopted())
	}
	j, err := sweep.OpenJournal(filepath.Join(dataDir, "sweeps", v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := j.Len(); n != v.Total || final.Completed != v.Total {
		t.Fatalf("journal holds %d points, survivor resolved %d, want %d", n, final.Completed, v.Total)
	}
	if final.Recovered != interrupted.Completed {
		t.Fatalf("survivor recovered %d points, the remote worker delivered %d", final.Recovered, interrupted.Completed)
	}
	if sims := b.EngineCounters().Simulations; int(sims)+final.Recovered != v.Total {
		t.Fatalf("work conservation: %d simulated + %d recovered != %d total", sims, final.Recovered, v.Total)
	}
}

// TestFollowerRedirectsWritesAndServesReads puts an HTTP server on each
// replica: writes to the follower 307-redirect to the owner, reads are
// served locally from the shared journal.
func TestFollowerRedirectsWritesAndServesReads(t *testing.T) {
	dataDir := t.TempDir()
	ttl := 400 * time.Millisecond

	cfgA := testConfig(t)
	cfgA.ResultDir = dataDir
	a := newTestService(t, cfgA)
	srvA := httptest.NewServer(Handler(a))
	t.Cleanup(srvA.Close)
	if err := a.EnableReplication("rep-a", srvA.URL, ttl); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, a, true)

	cfgB := testConfig(t)
	cfgB.ResultDir = dataDir
	b := newTestService(t, cfgB)
	srvB := httptest.NewServer(Handler(b))
	t.Cleanup(srvB.Close)
	if err := b.EnableReplication("rep-b", srvB.URL, ttl); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, b, false)

	// A bare client sees the redirect itself.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	specJSON, _ := json.Marshal(smallSweepSpec())
	resp, err := noFollow.Post(srvB.URL+"/v1/sweeps", "application/json", strings.NewReader(string(specJSON)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, srvA.URL) {
		t.Fatalf("redirect location = %q, want owner %s", loc, srvA.URL)
	}

	// The default client follows it transparently; the sweep lands on
	// the owner.
	resp2, err := http.Post(srvB.URL+"/v1/sweeps", "application/json", strings.NewReader(string(specJSON)))
	if err != nil {
		t.Fatal(err)
	}
	var v SweepView
	if err := json.NewDecoder(resp2.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted && resp2.StatusCode != http.StatusOK {
		t.Fatalf("redirected submit status = %d", resp2.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := a.WaitSweep(ctx, v.ID); err != nil {
		t.Fatalf("sweep did not land on the owner: %v", err)
	}

	// The follower serves the completed sweep and its artifacts from
	// the shared data root without proxying.
	var fromB SweepView
	getDeadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srvB.URL + "/v1/sweeps/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("follower read status = %d", r.StatusCode)
		}
		json.NewDecoder(r.Body).Decode(&fromB)
		r.Body.Close()
		if fromB.State == SweepCompleted {
			break
		}
		if time.Now().After(getDeadline) {
			t.Fatalf("follower never saw completion: %+v", fromB)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fromB.Completed != fromB.Total || len(fromB.Artifacts) == 0 {
		t.Fatalf("follower view: %+v", fromB)
	}
	ar, err := http.Get(srvB.URL + "/v1/sweeps/" + v.ID + "/artifacts/results.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Body.Close()
	if ar.StatusCode != http.StatusOK {
		t.Fatalf("follower artifact status = %d", ar.StatusCode)
	}
}

// waitLeader polls a replica's role until it matches.
func waitLeader(t *testing.T, s *Service, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Replica().IsLeader() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached leader=%v", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
