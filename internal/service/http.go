package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/ctlplane"
	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Handler exposes the service over HTTP:
//
//	POST /v1/jobs        submit a JobSpec; 202 with the job, or 200 when
//	                     served from cache/dedup. ?wait=1 blocks until
//	                     the job finishes (bounded by the request ctx).
//	GET  /v1/jobs        list all jobs (no full results)
//	GET  /v1/jobs/{id}   one job, with result when finished
//	POST /v1/sweeps      launch a design-space sweep from a sweep.Spec;
//	                     202 with progress, or 200 when an identical
//	                     sweep already exists. ?wait=1 blocks until done.
//	GET  /v1/sweeps      list sweeps
//	GET  /v1/sweeps/{id} sweep progress (completed/total points)
//	GET  /v1/sweeps/{id}/events
//	                     Server-Sent Events progress stream (snapshot,
//	                     point-completed, shard-leased, artifact-ready,
//	                     sweep-completed, heartbeat); resumes from
//	                     Last-Event-ID
//	GET  /v1/jobs/{id}/events
//	                     SSE job lifecycle stream (job-queued,
//	                     job-running, job-completed/failed/canceled)
//	GET  /v1/sweeps/{id}/artifacts/{name}
//	                     download a completed sweep's artifact
//	                     (results.json, results.csv, pareto.csv)
//	GET  /v1/figures/{id} run a paper figure/ablation ("1".."10",
//	                     "a1".."a10") and return its tables
//	POST /v1/corpus      upload a trace container (streaming,
//	                     size-capped); chunked into the CAS, 201 with
//	                     the manifest, or 200 when the store already
//	                     holds the entry (logical id)
//	GET  /v1/corpus      list corpus manifests; ?select=<expr> filters
//	                     by fingerprint (same grammar as a sweep's
//	                     corpus:select(...) workload axis)
//	GET  /v1/corpus/{id} download the entry reassembled as a container
//	GET  /v1/corpus/{id}/manifest
//	                     one entry's manifest (chunk recipe included)
//	GET  /v1/corpus/{id}/chunks/{chunk}
//	                     one raw chunk file from the entry's recipe
//	                     (federation transfer unit)
//	/v1/dist/...         distributed sweep execution: worker register,
//	                     lease acquire/renew/complete/fail, idempotent
//	                     point submission, sweep progress + artifacts
//	                     (see dist.Handler)
//	GET  /healthz        liveness + counter snapshot
//	GET  /metrics        Prometheus text exposition (service + dist +
//	                     corpus store/GC)
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		v, err := s.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if r.URL.Query().Get("wait") != "" {
			wv, err := s.Wait(r.Context(), v.ID)
			if err != nil {
				httpError(w, http.StatusGatewayTimeout, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, wv)
			return
		}
		status := http.StatusAccepted
		if v.State == StateCompleted {
			status = http.StatusOK // served from store or an already-done twin
		}
		writeJSON(w, status, v)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs []JobView `json:"jobs"`
		}{s.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec sweep.Spec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		v, err := s.SubmitSweep(spec)
		switch {
		case errors.Is(err, ErrSweepsSaturated):
			w.Header().Set("Retry-After", "5")
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if r.URL.Query().Get("wait") != "" {
			wv, err := s.WaitSweep(r.Context(), v.ID)
			if err != nil {
				httpError(w, http.StatusGatewayTimeout, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, wv)
			return
		}
		status := http.StatusAccepted
		if v.State != SweepRunning {
			status = http.StatusOK // identical sweep already finished
		}
		writeJSON(w, status, v)
	})
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Sweeps []SweepView `json:"sweeps"`
		}{s.Sweeps()})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.Sweep(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown sweep")
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := s.Sweep(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown sweep")
			return
		}
		serveSSE(s, w, r, "sweep/"+id, v)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := s.Job(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		v.Result = nil // snapshots stay small; fetch the job for the result
		serveSSE(s, w, r, "job/"+id, v)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		id, name := r.PathValue("id"), r.PathValue("name")
		v, ok := s.Sweep(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown sweep")
			return
		}
		data, ct, ok := s.SweepArtifact(id, name)
		if !ok {
			if v.State == SweepRunning {
				httpError(w, http.StatusConflict, "sweep still running")
				return
			}
			httpError(w, http.StatusNotFound, "unknown artifact (want one of "+strings.Join(v.Artifacts, ", ")+")")
			return
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})
	mux.HandleFunc("GET /v1/figures/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := strings.ToLower(r.PathValue("id"))
		name, tables, err := s.RunFigure(r.Context(), id)
		if err != nil {
			status := http.StatusInternalServerError
			if strings.Contains(err.Error(), "unknown figure") {
				status = http.StatusNotFound
			} else if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
				status = http.StatusGatewayTimeout
			}
			httpError(w, status, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			ID     string         `json:"id"`
			Name   string         `json:"name"`
			Tables []*stats.Table `json:"tables"`
		}{id, name, tables})
	})
	mux.HandleFunc("POST /v1/corpus", func(w http.ResponseWriter, r *http.Request) {
		cs := s.Corpus()
		if cs == nil {
			httpError(w, http.StatusServiceUnavailable, "corpus store disabled (daemon runs without -data)")
			return
		}
		existing := map[string]bool{}
		if list, err := cs.List(); err == nil {
			for _, m := range list {
				existing[m.ID] = true
			}
		}
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxCorpusUploadBytes)
		man, err := cs.Put(body, "upload")
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("upload exceeds %d byte cap", s.cfg.MaxCorpusUploadBytes))
				return
			}
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		status := http.StatusCreated
		if existing[man.ID] {
			status = http.StatusOK // identical bytes already stored
		}
		writeJSON(w, status, man)
	})
	mux.HandleFunc("GET /v1/corpus", func(w http.ResponseWriter, r *http.Request) {
		cs := s.Corpus()
		if cs == nil {
			httpError(w, http.StatusServiceUnavailable, "corpus store disabled (daemon runs without -data)")
			return
		}
		var list []corpus.Manifest
		var err error
		if expr, hasSel := r.URL.Query()["select"]; hasSel {
			// Fingerprint-indexed selection: the same grammar a sweep's
			// corpus:select(...) workload axis uses.
			sel := ""
			if len(expr) > 0 {
				sel = expr[0]
			}
			list, err = s.corpusSelectManifests(sel)
			if err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
		} else if list, err = cs.List(); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Entries []corpus.Manifest `json:"entries"`
		}{list})
	})
	mux.HandleFunc("GET /v1/corpus/{id}", func(w http.ResponseWriter, r *http.Request) {
		cs := s.Corpus()
		if cs == nil {
			httpError(w, http.StatusServiceUnavailable, "corpus store disabled (daemon runs without -data)")
			return
		}
		rc, size, err := cs.Reader(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, "unknown corpus entry")
			return
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
		io.Copy(w, rc)
	})
	mux.HandleFunc("GET /v1/corpus/{id}/manifest", func(w http.ResponseWriter, r *http.Request) {
		cs := s.Corpus()
		if cs == nil {
			httpError(w, http.StatusServiceUnavailable, "corpus store disabled (daemon runs without -data)")
			return
		}
		man, err := cs.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, "unknown corpus entry")
			return
		}
		writeJSON(w, http.StatusOK, man)
	})
	mux.HandleFunc("GET /v1/corpus/{id}/chunks/{chunk}", func(w http.ResponseWriter, r *http.Request) {
		cs := s.Corpus()
		if cs == nil {
			httpError(w, http.StatusServiceUnavailable, "corpus store disabled (daemon runs without -data)")
			return
		}
		// The chunk route is the federation transfer unit: peers and
		// dist workers pull a manifest, then only the chunks their CAS
		// is missing. Access is scoped through an entry's recipe so the
		// CAS is not an open blob service.
		rc, size, err := cs.ChunkReader(r.PathValue("id"), r.PathValue("chunk"))
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
		io.Copy(w, rc)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		role, leaderURL := "standalone", ""
		if rep := s.Replica(); rep != nil {
			role = "follower"
			if rep.IsLeader() {
				role = "leader"
			}
			if info, ok := rep.Leader(); ok {
				leaderURL = info.URL
			}
		}
		writeJSON(w, http.StatusOK, struct {
			Status  string   `json:"status"`
			Role    string   `json:"role"`
			Leader  string   `json:"leader_url,omitempty"`
			Workers int      `json:"workers"`
			Queue   int      `json:"queue_depth"`
			Jobs    Snapshot `json:"jobs"`
		}{"ok", role, leaderURL, s.Workers(), s.QueueDepth(), s.metrics.Snapshot()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.WriteProm(w, s.QueueDepth(), s.Workers(), s.ActiveSweeps(), s.EngineCounters())
		s.Dist().WriteProm(w)
		s.WriteCtlplaneProm(w)
		s.WriteCorpusProm(w)
		WriteRuntimeProm(w, s.cfg.Version)
	})
	// Distributed sweep execution: worker registration, lease
	// acquire/renew/complete, idempotent point submission, progress.
	mux.Handle("/v1/dist/", http.StripPrefix("/v1/dist", dist.Handler(s.Dist())))

	// Edge middleware, innermost first: writes on a follower replica
	// 307-redirect to the lease owner, and admission control sheds
	// over-quota submissions before they cost a queue slot.
	var h http.Handler = mux
	h = redirectWrites(s, h)
	h = admitSubmissions(s, h)
	return h
}

// admitSubmissions enforces per-client token-bucket quotas on job and
// sweep submissions. Disabled (nil limiter) requests pass through.
func admitSubmissions(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost &&
			(r.URL.Path == "/v1/jobs" || r.URL.Path == "/v1/sweeps") {
			if l := s.Limiter(); l != nil {
				if ok, retryAfter := l.Allow(ctlplane.ClientKey(r)); !ok {
					secs := int(retryAfter / time.Second)
					if secs < 1 {
						secs = 1
					}
					w.Header().Set("Retry-After", strconv.Itoa(secs))
					httpError(w, http.StatusTooManyRequests, "quota exceeded; slow down")
					return
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// redirectWrites sends mutating requests hitting a follower replica to
// the current lease owner with a 307 (method- and body-preserving)
// redirect. With no live owner the client is told to retry shortly —
// a takeover is at most one lease TTL away. Reads are always served
// locally; disabled replication passes everything through.
func redirectWrites(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := s.Replica()
		if rep == nil || rep.IsLeader() ||
			r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		info, ok := rep.Leader()
		if !ok || info.URL == "" {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "no control-plane owner; retry shortly")
			return
		}
		if info.Holder == rep.ID() {
			// Raced our own takeover; serve it.
			next.ServeHTTP(w, r)
			return
		}
		http.Redirect(w, r, strings.TrimRight(info.URL, "/")+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	})
}

// serveSSE streams one topic to the client as Server-Sent Events: an
// unnumbered snapshot of current state, the retained events after the
// client's Last-Event-ID, then live events with periodic heartbeats,
// until the client hangs up or the broker drains for shutdown (which
// delivers a final "shutdown" event).
func serveSSE(s *Service, w http.ResponseWriter, r *http.Request, topic string, snapshot any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	replay, sub, missed, err := s.Broker().Subscribe(topic, ctlplane.LastEventID(r))
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// The snapshot carries the authoritative current state (rebuilt from
	// the journal when this replica never ran the work), so a client
	// resuming from below the retained window still converges; "missed"
	// tells it counts may have advanced without per-event delivery.
	data, _ := json.Marshal(snapshot)
	writeEvent := func(ev ctlplane.Event) bool {
		if err := ctlplane.WriteSSE(w, ev); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	snapType := "snapshot"
	if missed {
		snapType = "snapshot-resync"
	}
	if !writeEvent(ctlplane.Event{Type: snapType, Data: data}) {
		return
	}
	for _, ev := range replay {
		if !writeEvent(ev) {
			return
		}
	}
	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return // broker drained (shutdown event already delivered) or we overflowed
			}
			if !writeEvent(ev) {
				return
			}
		case <-hb.C:
			if !writeEvent(ctlplane.Event{Type: "heartbeat", Data: json.RawMessage(`{}`)}) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}
