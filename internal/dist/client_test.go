package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps backoff sleeps microscopic in tests.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

func newFlakyServer(t *testing.T, failures int32, failStatus int, handler http.HandlerFunc) (*httptest.Server, *int32) {
	t.Helper()
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&calls, 1)
		if n <= failures {
			http.Error(w, `{"error":"synthetic"}`, failStatus)
			return
		}
		handler(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestClientRetriesServerErrors(t *testing.T) {
	srv, calls := newFlakyServer(t, 2, http.StatusInternalServerError, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/dist/workers" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		w.Write([]byte(`{"id":"w-000007","lease_ttl_ms":1000}`))
	})
	c := NewClient(srv.URL)
	c.Retry = fastRetry
	v, err := c.Register(context.Background(), "flaky")
	if err != nil {
		t.Fatalf("register through two 500s: %v", err)
	}
	if v.ID != "w-000007" || v.LeaseTTLMS != 1000 {
		t.Fatalf("register view = %+v", v)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two failures + success)", got)
	}
}

func TestClientExhaustsRetryBudget(t *testing.T) {
	srv, calls := newFlakyServer(t, 1<<30, http.StatusServiceUnavailable, nil)
	c := NewClient(srv.URL)
	c.Retry = fastRetry
	if _, err := c.Register(context.Background(), "doomed"); err == nil {
		t.Fatal("register succeeded against a permanently failing server")
	}
	if got := atomic.LoadInt32(calls); got != int32(fastRetry.MaxAttempts) {
		t.Fatalf("server saw %d calls, want the full budget of %d", got, fastRetry.MaxAttempts)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	srv, calls := newFlakyServer(t, 1<<30, http.StatusBadRequest, nil)
	c := NewClient(srv.URL)
	c.Retry = fastRetry
	if _, err := c.Register(context.Background(), "rejected"); err == nil {
		t.Fatal("400 response did not surface an error")
	}
	if got := atomic.LoadInt32(calls); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (4xx is terminal)", got)
	}
}

func TestClientHonoursContextBetweenAttempts(t *testing.T) {
	srv, _ := newFlakyServer(t, 1<<30, http.StatusInternalServerError, nil)
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Register(ctx, "impatient")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ignored ctx for %s", elapsed)
	}
}

func TestClientMapsSentinelStatuses(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/leases", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		w.Write([]byte(`{"error":"quarantined"}`))
	})
	mux.HandleFunc("POST /v1/dist/leases/{id}/renew", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		w.Write([]byte(`{"error":"lease gone"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retry = fastRetry
	if _, err := c.Acquire(context.Background(), "w-1", 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("403 acquire: %v, want ErrQuarantined", err)
	}
	if err := c.Renew(context.Background(), "lease-1", "w-1"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("410 renew: %v, want ErrLeaseGone", err)
	}
}

func TestClientAcquireNoWork(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retry = fastRetry
	l, err := c.Acquire(context.Background(), "w-1", 0)
	if err != nil || l != nil {
		t.Fatalf("idle acquire = %v, %v; want nil, nil", l, err)
	}
}

// fakeSleeper records requested sleep durations instead of sleeping.
type fakeSleeper struct {
	mu    sync.Mutex
	slept []time.Duration
	clock time.Time
}

func (f *fakeSleeper) sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	f.slept = append(f.slept, d)
	f.clock = f.clock.Add(d)
	f.mu.Unlock()
	return ctx.Err()
}

func (f *fakeSleeper) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock
}

func (f *fakeSleeper) durations() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.slept...)
}

// newThrottledClient wires a client to srv with a fake clock.
func newThrottledClient(srv *httptest.Server) (*Client, *fakeSleeper) {
	fs := &fakeSleeper{clock: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	c.now = fs.now
	c.sleep = fs.sleep
	return c, fs
}

func TestClientHonoursRetryAfterSeconds(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"id":"w-1","lease_ttl_ms":1000}`))
	}))
	t.Cleanup(srv.Close)
	c, fs := newThrottledClient(srv)
	if _, err := c.Register(context.Background(), "w"); err != nil {
		t.Fatalf("register through one 429: %v", err)
	}
	slept := fs.durations()
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("want exactly one 7s sleep from Retry-After, got %v", slept)
	}
}

func TestClientHonoursRetryAfterHTTPDate(t *testing.T) {
	var calls int32
	var c *Client
	var fs *fakeSleeper
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			// 5s in the future relative to the fake clock.
			w.Header().Set("Retry-After", fs.now().Add(5*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"id":"w-1","lease_ttl_ms":1000}`))
	}))
	t.Cleanup(srv.Close)
	c, fs = newThrottledClient(srv)
	if _, err := c.Register(context.Background(), "w"); err != nil {
		t.Fatalf("register through one 503: %v", err)
	}
	slept := fs.durations()
	if len(slept) != 1 || slept[0] != 5*time.Second {
		t.Fatalf("want one 5s sleep from HTTP-date Retry-After, got %v", slept)
	}
}

func TestClientCapsRetryAfter(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "86400") // a day; do not believe it
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"id":"w-1","lease_ttl_ms":1000}`))
	}))
	t.Cleanup(srv.Close)
	c, fs := newThrottledClient(srv)
	c.Retry.MaxRetryAfter = 10 * time.Second
	if _, err := c.Register(context.Background(), "w"); err != nil {
		t.Fatal(err)
	}
	if slept := fs.durations(); len(slept) != 1 || slept[0] != 10*time.Second {
		t.Fatalf("want Retry-After capped at 10s, got %v", slept)
	}
}

func TestClientBacksOffWithoutRetryAfter(t *testing.T) {
	// A 429 with no Retry-After falls back to jittered backoff bounded
	// by the policy — never a multi-second stall.
	srv, _ := newFlakyServer(t, 2, http.StatusTooManyRequests, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"w-1","lease_ttl_ms":1000}`))
	})
	c, fs := newThrottledClient(srv)
	if _, err := c.Register(context.Background(), "w"); err != nil {
		t.Fatal(err)
	}
	for _, d := range fs.durations() {
		if d > c.Retry.MaxDelay+c.Retry.MaxDelay/2 { // jitter factor < 1.5
			t.Fatalf("backoff sleep %v exceeds jittered MaxDelay", d)
		}
	}
}

func TestClientRotatesToFallbackReplica(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"w-2","lease_ttl_ms":1000}`))
	}))
	t.Cleanup(healthy.Close)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	c := NewClient(dead.URL, healthy.URL)
	c.Retry = fastRetry
	fs := &fakeSleeper{clock: time.Unix(9000, 0)}
	c.now, c.sleep = fs.now, fs.sleep
	v, err := c.Register(context.Background(), "w")
	if err != nil {
		t.Fatalf("register should fail over to the healthy replica: %v", err)
	}
	if v.ID != "w-2" {
		t.Fatalf("view = %+v", v)
	}
}

// WaitSweep re-reads a running sweep with a doubling back-off from
// 10ms, reports each running view, and returns the finished one.
func TestClientWaitSweepBacksOff(t *testing.T) {
	var reads int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/sweeps/sw1" {
			http.NotFound(w, r)
			return
		}
		v := SweepView{ID: "sw1", State: SweepRunning, Total: 4}
		if n := atomic.AddInt32(&reads, 1); n >= 3 {
			v.State, v.Completed = SweepCompleted, 4
		}
		json.NewEncoder(w).Encode(v)
	}))
	defer srv.Close()
	c, fs := newThrottledClient(srv)

	var seen []SweepState
	v, err := c.WaitSweep(context.Background(), "sw1", func(v SweepView) { seen = append(seen, v.State) })
	if err != nil {
		t.Fatal(err)
	}
	if v.State != SweepCompleted || v.Completed != 4 {
		t.Fatalf("WaitSweep returned %+v, want the completed view", v)
	}
	if len(seen) != 2 || seen[0] != SweepRunning || seen[1] != SweepRunning {
		t.Fatalf("progress saw %v, want two running views", seen)
	}
	var total time.Duration
	for _, d := range fs.durations() {
		total += d
	}
	if n := atomic.LoadInt32(&reads); total != 30*time.Millisecond || n != 3 {
		t.Fatalf("slept %v over %d reads, want 30ms over 3", fs.durations(), n)
	}
}
