package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/sweep"
)

// Handler exposes the coordinator's worker protocol over HTTP. The
// service layer mounts it under /v1/dist (see service.Handler) and
// serves sweep submission and reads under /v1/sweeps itself; paths here
// are relative to the /v1/dist prefix:
//
//	POST /workers                worker registration -> {id, lease_ttl_ms}
//	POST /sweeps/{id}/points     idempotent point submission (409 =
//	                             this coordinator no longer owns the
//	                             journal)
//	POST /leases                 acquire the next shard lease, waiting
//	                             up to wait_ms (at most one lease TTL)
//	                             for work (204 = no pending work, 403 =
//	                             quarantined)
//	POST /leases/{id}/renew      heartbeat (410 = lease gone)
//	POST /leases/{id}/complete   close a fully-delivered lease
//	POST /leases/{id}/fail       abandon a lease after a worker error
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /workers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		v, _ := c.Register(r.Context(), req.Name)
		writeJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("POST /sweeps/{id}/points", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string            `json:"worker_id"`
			Result   sweep.PointResult `json:"result"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		dup, err := c.SubmitPoint(r.Context(), r.PathValue("id"), req.WorkerID, req.Result)
		switch {
		case errors.Is(err, ErrUnknownSweep):
			httpError(w, http.StatusNotFound, err.Error())
			return
		case errors.Is(err, ErrFenced):
			httpError(w, http.StatusConflict, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Duplicate bool `json:"duplicate"`
		}{dup})
	})

	mux.HandleFunc("POST /leases", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"worker_id"`
			WaitMS   int64  `json:"wait_ms,omitempty"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		wait := min(time.Duration(req.WaitMS)*time.Millisecond, c.cfg.LeaseTTL)
		l, err := c.Acquire(r.Context(), req.WorkerID, wait)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			httpError(w, http.StatusNotFound, err.Error())
			return
		case errors.Is(err, ErrQuarantined):
			httpError(w, http.StatusForbidden, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		case l == nil:
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})

	leaseOp := func(op func(ctx context.Context, leaseID, workerID string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				WorkerID string `json:"worker_id"`
				Error    string `json:"error,omitempty"`
			}
			if err := decode(r, &req); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			err := op(r.Context(), r.PathValue("id"), req.WorkerID)
			if errors.Is(err, ErrLeaseGone) {
				httpError(w, http.StatusGone, err.Error())
				return
			}
			if err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, struct {
				OK bool `json:"ok"`
			}{true})
		}
	}
	mux.HandleFunc("POST /leases/{id}/renew", leaseOp(c.Renew))
	mux.HandleFunc("POST /leases/{id}/complete", leaseOp(c.Complete))
	mux.HandleFunc("POST /leases/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"worker_id"`
			Error    string `json:"error,omitempty"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		err := c.Fail(r.Context(), r.PathValue("id"), req.WorkerID, req.Error)
		if errors.Is(err, ErrLeaseGone) {
			httpError(w, http.StatusGone, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			OK bool `json:"ok"`
		}{true})
	})

	return mux
}

// decode parses a JSON request body strictly.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errors.New("bad request body: " + err.Error())
	}
	return nil
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
