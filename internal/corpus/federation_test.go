package corpus

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

// peerServer exposes a store over the two federation routes, mirroring
// the daemon's /v1/corpus handlers.
func peerServer(t *testing.T, s *Store) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, "/v1/corpus/")
		if !ok {
			http.NotFound(w, r)
			return
		}
		id, tail, _ := strings.Cut(rest, "/")
		switch {
		case tail == "manifest":
			m, err := s.Get(id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(m)
		case strings.HasPrefix(tail, "chunks/"):
			rc, _, err := s.ChunkReader(id, strings.TrimPrefix(tail, "chunks/"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			defer rc.Close()
			io.Copy(w, rc)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestFetcherReplicatesEntry(t *testing.T) {
	src := newStore(t)
	m := captureWeb(t, src, 9, 2500)
	srv := peerServer(t, src)

	dst := newStore(t)
	f := &Fetcher{Store: dst, Peers: []string{srv.URL}, Logf: t.Logf}
	if err := f.Fetch(context.Background(), m.ID); err != nil {
		t.Fatal(err)
	}
	if !dst.Has(m.ID) {
		t.Fatal("fetch succeeded but entry missing")
	}
	got, err := dst.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "federate" {
		t.Fatalf("replicated entry source = %q", got.Source)
	}
	if !equalContent(got, m) {
		t.Fatalf("replicated manifest content differs:\n%+v\n%+v", got, m)
	}
	if err := dst.Verify(m.ID); err != nil {
		t.Fatal(err)
	}
	// Replays byte-identically.
	if got, want := containerBytes(t, dst, m.ID), containerBytes(t, src, m.ID); string(got) != string(want) {
		t.Fatal("replicated entry downloads differently")
	}
	// Idempotent: a second fetch is a local no-op even with no peers.
	f2 := &Fetcher{Store: dst}
	if err := f2.Fetch(context.Background(), m.ID); err != nil {
		t.Fatal(err)
	}
}

func TestFetcherSkipsSharedChunks(t *testing.T) {
	src := newStore(t)
	p := dedupProfile()
	prog := workload.MustBuildProgram(p, 0)
	m1, err := src.Capture(workload.NewGenerator(prog, 101), p.Name, 0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := src.Capture(workload.NewGenerator(prog, 202), p.Name, 0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	srv := peerServer(t, src)

	dst := newStore(t)
	var requests int
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/chunks/") {
			requests++
		}
		resp, err := http.Get(srv.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(counting.Close)

	f := &Fetcher{Store: dst, Peers: []string{counting.URL}}
	if err := f.Fetch(context.Background(), m1.ID); err != nil {
		t.Fatal(err)
	}
	first := requests
	if err := f.Fetch(context.Background(), m2.ID); err != nil {
		t.Fatal(err)
	}
	second := requests - first
	// The cross-seed twin shares >=30% of chunks, so the second fetch
	// must pull strictly fewer than its full recipe.
	if second >= m2.Chunks {
		t.Fatalf("second fetch pulled %d chunks of %d despite sharing", second, m2.Chunks)
	}
	if err := dst.Verify(m2.ID); err != nil {
		t.Fatal(err)
	}
}

func TestFetcherRejectsCorruptPeer(t *testing.T) {
	src := newStore(t)
	m := captureWeb(t, src, 13, 1500)
	good := peerServer(t, src)

	// A peer that flips a byte in every chunk body it serves.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(good.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if strings.Contains(r.URL.Path, "/chunks/") && len(body) > 0 {
			body[len(body)/2] ^= 0x40
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(evil.Close)

	dst := newStore(t)
	f := &Fetcher{Store: dst, Peers: []string{evil.URL}}
	if err := f.Fetch(context.Background(), m.ID); err == nil {
		t.Fatal("corrupt peer accepted")
	}
	if dst.Has(m.ID) {
		t.Fatal("corrupt fetch installed a manifest")
	}
	// Falling back to the good peer after the bad one works.
	f.Peers = []string{evil.URL, good.URL}
	if err := f.Fetch(context.Background(), m.ID); err != nil {
		t.Fatal(err)
	}
	if err := dst.Verify(m.ID); err != nil {
		t.Fatal(err)
	}
}

func TestFetchNoPeers(t *testing.T) {
	dst := newStore(t)
	f := &Fetcher{Store: dst}
	id := strings.Repeat("ab", 32)
	if err := f.Fetch(context.Background(), id); err == nil {
		t.Fatal("fetch with no peers succeeded")
	}
	if err := f.Fetch(context.Background(), "not-an-id"); err == nil {
		t.Fatal("invalid id accepted")
	}
}

// TestGCConcurrentWithFetch: chunks a fetch has pulled (or found
// already local) but not yet covered by an adopted manifest are GC
// roots, so a collector running with no grace window alongside the
// fetch neither fails it nor leaves the entry with missing chunks.
func TestGCConcurrentWithFetch(t *testing.T) {
	src := newStore(t)
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, captureWeb(t, src, uint64(30+i), 2500).ID)
	}
	srv := peerServer(t, src)

	dst := newStore(t)
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
			if _, err := dst.GC(GCOptions{Grace: -1}); err != nil {
				gcDone <- err
				return
			}
		}
	}()
	f := &Fetcher{Store: dst, Peers: []string{srv.URL}}
	var fetchErr error
	for _, id := range ids {
		if fetchErr = f.Fetch(context.Background(), id); fetchErr != nil {
			break
		}
	}
	close(stop)
	if err := <-gcDone; err != nil {
		t.Fatal(err)
	}
	if fetchErr != nil {
		t.Fatalf("fetch raced GC: %v", fetchErr)
	}
	for _, id := range ids {
		if err := dst.Verify(id); err != nil {
			t.Fatalf("GC raced a fetch into corruption: %v", err)
		}
	}
}
