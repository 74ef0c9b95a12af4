package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sweep"
)

// RetryPolicy shapes the client's jittered exponential backoff. Every
// transport error and 5xx response retries until the attempt budget is
// spent; 429 and 503 also retry, sleeping out a server-provided
// Retry-After when one is present (the server knows its own load
// better than our backoff curve does); other 4xx responses are
// terminal (the coordinator said no, asking again the same way will
// not help).
type RetryPolicy struct {
	// MaxAttempts bounds total tries per call (first try included).
	// Default 8.
	MaxAttempts int
	// BaseDelay is the first backoff step. Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Default 5s.
	MaxDelay time.Duration
	// MaxRetryAfter caps how long a server-provided Retry-After is
	// honoured, so a misconfigured server cannot park the client.
	// Default 30s.
	MaxRetryAfter time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = 30 * time.Second
	}
	return p
}

// Client talks to an iprefetchd daemon: the worker protocol under
// <BaseURL>/v1/dist, and sweep submission and reads under
// <BaseURL>/v1/sweeps. All methods retry transient failures under the
// retry policy and honour ctx cancellation between attempts. With
// FallbackURLs set (a replicated control plane), the client rotates to
// the next replica after a transport error or server-side failure —
// follower replicas 307-redirect writes to the owner, which the
// underlying http.Client follows transparently.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://host:8080".
	BaseURL string
	// FallbackURLs lists additional replica roots to rotate through
	// when the current one is unreachable.
	FallbackURLs []string
	// HTTPClient defaults to a client with a 30s request timeout.
	HTTPClient *http.Client
	// Retry shapes the backoff; zero fields take defaults.
	Retry RetryPolicy

	mu     sync.Mutex
	rng    *rand.Rand
	urlIdx int // index into the BaseURL+FallbackURLs rotation

	// test seams; nil means the real clock.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient returns a client for the daemon at baseURL. Additional
// URLs are failover replicas.
func NewClient(baseURL string, fallback ...string) *Client {
	for i, u := range fallback {
		fallback[i] = strings.TrimRight(u, "/")
	}
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), FallbackURLs: fallback}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) timeNow() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Client) doSleep(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// currentURL returns the replica root this client is pinned to.
func (c *Client) currentURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urlIdx == 0 || len(c.FallbackURLs) == 0 {
		return c.BaseURL
	}
	return c.FallbackURLs[(c.urlIdx-1)%len(c.FallbackURLs)]
}

// rotateURL advances to the next replica after a failure.
func (c *Client) rotateURL() {
	c.mu.Lock()
	if len(c.FallbackURLs) > 0 {
		c.urlIdx = (c.urlIdx + 1) % (len(c.FallbackURLs) + 1)
	}
	c.mu.Unlock()
}

// jitter scales d by a uniform factor in [0.5, 1.5).
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	f := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// apiError is a non-retryable coordinator response.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("dist: coordinator returned %d: %s", e.status, e.msg)
}

// parseRetryAfter interprets a Retry-After header value: either
// delta-seconds or an HTTP date.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// do POSTs (or GETs, when body is nil and method says so) one API call
// to path under the daemon root with retries, decoding a JSON response
// into out when non-nil. Returns the final HTTP status.
func (c *Client) do(ctx context.Context, method, path string, body, out any) (int, error) {
	policy := c.Retry.withDefaults()
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	delay := policy.BaseDelay
	var retryAfter time.Duration // server-provided wait, consumed once
	var lastErr error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.jitter(delay)
			if retryAfter > 0 {
				// The server told us when to come back; believe it
				// (capped) instead of guessing.
				wait = retryAfter
				if wait > policy.MaxRetryAfter {
					wait = policy.MaxRetryAfter
				}
				retryAfter = 0
			}
			if err := c.doSleep(ctx, wait); err != nil {
				return 0, err
			}
			if delay *= 2; delay > policy.MaxDelay {
				delay = policy.MaxDelay
			}
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		url := c.currentURL() + path
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return 0, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			lastErr = err
			c.rotateURL()
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			// Back-pressure: retry when the server says to.
			lastErr = &apiError{resp.StatusCode, errBody(data)}
			if ra, ok := parseRetryAfter(resp.Header.Get("Retry-After"), c.timeNow()); ok {
				retryAfter = ra
			}
			continue
		case resp.StatusCode >= 500:
			lastErr = &apiError{resp.StatusCode, errBody(data)}
			c.rotateURL() // this replica is in trouble; try a peer
			continue
		case resp.StatusCode >= 400:
			return resp.StatusCode, &apiError{resp.StatusCode, errBody(data)}
		}
		if out != nil && resp.StatusCode != http.StatusNoContent {
			if err := json.Unmarshal(data, out); err != nil {
				return resp.StatusCode, fmt.Errorf("dist: decode %s response: %w", path, err)
			}
		}
		return resp.StatusCode, nil
	}
	return 0, fmt.Errorf("dist: %s %s: retry budget exhausted: %w", method, path, lastErr)
}

// errBody extracts the {"error": ...} message from an error response.
func errBody(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// Register admits this worker to the coordinator.
func (c *Client) Register(ctx context.Context, name string) (WorkerView, error) {
	var v WorkerView
	_, err := c.do(ctx, http.MethodPost, "/v1/dist/workers", struct {
		Name string `json:"name"`
	}{name}, &v)
	return v, err
}

// SubmitSweep submits a spec to the daemon's sweep API (POST
// /v1/sweeps), under the same admission control as any client.
func (c *Client) SubmitSweep(ctx context.Context, spec sweep.Spec) (SweepView, error) {
	var v SweepView
	_, err := c.do(ctx, http.MethodPost, "/v1/sweeps", spec, &v)
	return v, err
}

// Sweep fetches one sweep's progress.
func (c *Client) Sweep(ctx context.Context, id string) (SweepView, error) {
	var v SweepView
	_, err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &v)
	return v, err
}

// WaitSweep polls a sweep until it leaves the running state and returns
// its final view. The first re-read follows 10ms after the first read
// and the interval doubles up to 1s, so a short sweep is seen finished
// within milliseconds and a long one costs one request a second.
// progress, if non-nil, sees every view that is still running.
func (c *Client) WaitSweep(ctx context.Context, id string, progress func(SweepView)) (SweepView, error) {
	delay := 10 * time.Millisecond
	for {
		v, err := c.Sweep(ctx, id)
		if err != nil || v.State != SweepRunning {
			return v, err
		}
		if progress != nil {
			progress(v)
		}
		if err := c.doSleep(ctx, delay); err != nil {
			return v, err
		}
		delay = min(2*delay, time.Second)
	}
}

// Artifact downloads one artifact of a completed sweep. Artifacts are
// not all JSON (results.csv, pareto.csv), so the body comes back raw.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.currentURL()+"/v1/sweeps/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &apiError{resp.StatusCode, errBody(body)}
	}
	return body, nil
}

// FetchCorpus streams one trace-corpus container from the coordinator
// by content hash (GET /v1/corpus/{id} at the daemon root, outside the
// /v1/dist prefix). The caller owns the returned body and should
// re-hash what it reads — the id names the bytes.
func (c *Client) FetchCorpus(ctx context.Context, id string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.currentURL()+"/v1/corpus/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, &apiError{resp.StatusCode, errBody(body)}
	}
	return resp.Body, nil
}

// Acquire requests the next shard lease; the coordinator holds the
// request up to wait for work to appear. A nil lease with nil error
// means no work came.
func (c *Client) Acquire(ctx context.Context, workerID string, wait time.Duration) (*Lease, error) {
	var l Lease
	status, err := c.do(ctx, http.MethodPost, "/v1/dist/leases", struct {
		WorkerID string `json:"worker_id"`
		WaitMS   int64  `json:"wait_ms,omitempty"`
	}{workerID, wait.Milliseconds()}, &l)
	if err != nil {
		if isAPIStatus(err, http.StatusForbidden) {
			return nil, ErrQuarantined
		}
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &l, nil
}

// isAPIStatus reports whether err is a coordinator response with the
// given status.
func isAPIStatus(err error, status int) bool {
	ae, ok := err.(*apiError)
	return ok && ae.status == status
}

// leaseOp posts one lease lifecycle call, translating 410 to
// ErrLeaseGone.
func (c *Client) leaseOp(ctx context.Context, leaseID, op, workerID, msg string) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/dist/leases/"+leaseID+"/"+op, struct {
		WorkerID string `json:"worker_id"`
		Error    string `json:"error,omitempty"`
	}{workerID, msg}, nil)
	if isAPIStatus(err, http.StatusGone) {
		return ErrLeaseGone
	}
	return err
}

// Renew heartbeats a lease.
func (c *Client) Renew(ctx context.Context, leaseID, workerID string) error {
	return c.leaseOp(ctx, leaseID, "renew", workerID, "")
}

// Complete closes a fully-delivered lease.
func (c *Client) Complete(ctx context.Context, leaseID, workerID string) error {
	return c.leaseOp(ctx, leaseID, "complete", workerID, "")
}

// Fail abandons a lease after a worker-side error.
func (c *Client) Fail(ctx context.Context, leaseID, workerID, msg string) error {
	return c.leaseOp(ctx, leaseID, "fail", workerID, msg)
}

// SubmitPoint delivers one completed point (idempotent on the
// coordinator side; duplicate deliveries are acknowledged, not
// re-counted).
func (c *Client) SubmitPoint(ctx context.Context, sweepID, workerID string, res sweep.PointResult) (duplicate bool, err error) {
	var v struct {
		Duplicate bool `json:"duplicate"`
	}
	_, err = c.do(ctx, http.MethodPost, "/v1/dist/sweeps/"+sweepID+"/points", struct {
		WorkerID string            `json:"worker_id"`
		Result   sweep.PointResult `json:"result"`
	}{workerID, res}, &v)
	return v.Duplicate, err
}
