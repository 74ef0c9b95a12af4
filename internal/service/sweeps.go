package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sweep"
)

// SweepState is the lifecycle of a design-space sweep.
type SweepState string

// Sweep lifecycle states.
const (
	SweepRunning   SweepState = "running"
	SweepCompleted SweepState = "completed"
	SweepFailed    SweepState = "failed"
	SweepCanceled  SweepState = "canceled"
)

// sweepRun is the service-internal sweep record; mutable fields are
// guarded by Service.mu.
type sweepRun struct {
	id          string
	spec        sweep.Spec
	state       SweepState
	errMsg      string
	total       int
	completed   int // resolved points (recovered + simulated)
	recovered   int
	artifacts   map[string][]byte // name -> rendered artifact, on completion
	submittedAt time.Time
	finishedAt  time.Time
	done        chan struct{}
}

// SweepView is the wire form of a sweep.
type SweepView struct {
	ID        string     `json:"id"`
	State     SweepState `json:"state"`
	Spec      sweep.Spec `json:"spec"`
	Error     string     `json:"error,omitempty"`
	Total     int        `json:"total_points"`
	Completed int        `json:"completed_points"`
	Recovered int        `json:"recovered_points"`
	// Resumed reports that some points were replayed from a previous
	// run's checkpoints instead of simulated.
	Resumed     bool       `json:"resumed,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Artifacts lists the downloadable artifact names once the sweep
	// completes (GET /v1/sweeps/{id}/artifacts/{name}).
	Artifacts []string `json:"artifacts,omitempty"`
}

// SubmitSweep validates and launches a design-space sweep. Sweep
// identity is content-derived (spec + budgets), so resubmitting an
// identical spec attaches to the running sweep or returns the
// completed one instead of recomputing; with a result store
// configured, points checkpoint to <store>/sweeps/<id> and a sweep
// interrupted by a daemon restart resumes from disk.
func (s *Service) SubmitSweep(spec sweep.Spec) (SweepView, error) {
	// Selector workload axes expand against this daemon's corpus index
	// before anything identity-bearing happens: the grid, the journal
	// directory and the sweep ID all see pinned trace:<id> hashes.
	if err := s.normalizeSweepSpec(&spec); err != nil {
		return SweepView{}, err
	}
	if err := spec.Validate(); err != nil {
		return SweepView{}, err
	}
	points, err := spec.Expand()
	if err != nil {
		return SweepView{}, err
	}
	warm, measure, seed := s.budgets(JobSpec{
		WarmInstrs: spec.WarmInstrs, MeasureInstrs: spec.MeasureInstrs, Seed: spec.Seed})
	id := spec.ID(warm, measure, seed)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SweepView{}, ErrClosed
	}
	if run, ok := s.sweeps[id]; ok {
		return s.sweepViewLocked(run), nil
	}
	if s.activeSweepsLocked() >= s.cfg.MaxActiveSweeps {
		s.metrics.SweepSaturated()
		return SweepView{}, ErrSweepsSaturated
	}
	run := &sweepRun{
		id:          id,
		spec:        spec,
		state:       SweepRunning,
		total:       len(points),
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	if s.sweeps == nil {
		s.sweeps = make(map[string]*sweepRun)
	}
	s.sweeps[id] = run
	eng := s.engineFor(warm, measure, seed)
	s.metrics.SweepSubmitted()

	var journal *sweep.Journal
	if s.cfg.ResultDir != "" {
		j, err := sweep.OpenJournal(filepath.Join(s.cfg.ResultDir, "sweeps", id))
		if err != nil {
			s.logf("service: sweep %s: journal disabled: %v", id, err)
		} else {
			journal = j
			// Persist the sweep's identity next to its journal so any
			// replica can resume it (leadership takeover) or serve its
			// progress without having run it.
			if err := writeSweepMeta(j.Dir(), sweepMeta{
				Spec: spec, Warm: warm, Measure: measure, Seed: seed,
				Total: len(points), SubmittedAt: run.submittedAt,
			}); err != nil {
				s.logf("service: sweep %s: persist meta: %v", id, err)
			}
		}
	}
	topic := "sweep/" + id
	runner := &sweep.Runner{
		Engine:  eng,
		Workers: s.cfg.Workers,
		Journal: journal,
		Logf:    s.cfg.Logf,
		OnPoint: func(res sweep.PointResult) {
			s.mu.Lock()
			run.completed++
			completed := run.completed
			if res.Recovered {
				run.recovered++
			}
			s.mu.Unlock()
			s.publish(topic, "point-completed", struct {
				Key       string  `json:"key"`
				IPC       float64 `json:"ipc"`
				Completed int     `json:"completed"`
				Total     int     `json:"total"`
				Recovered bool    `json:"recovered,omitempty"`
			}{res.Key, res.IPC, completed, run.total, res.Recovered})
			s.metrics.SweepPoint(res.Recovered)
			if !res.Recovered {
				// Attribution counters only for freshly simulated
				// points; checkpoint replays already counted once.
				for _, c := range res.Components {
					s.metrics.PrefetchComponent(c.Name, c.Issued, c.Useful)
				}
			}
		},
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runSweep(run, runner)
	}()
	return s.sweepViewLocked(run), nil
}

// runSweep executes one sweep under the service's base context and
// records its terminal state and artifacts.
func (s *Service) runSweep(run *sweepRun, runner *sweep.Runner) {
	out, err := runner.Run(s.baseCtx, run.spec)

	state := SweepCompleted
	var artifacts map[string][]byte
	var errMsg string
	switch {
	case err == nil:
		artifacts = out.Artifact().Files()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		state = SweepCanceled
		errMsg = err.Error()
	default:
		state = SweepFailed
		errMsg = err.Error()
	}

	// Artifacts reach disk and metrics count the sweep before the
	// terminal state is visible, so a client that sees it finished can
	// rely on both.
	if state == SweepCompleted {
		s.persistArtifacts(run.id, artifacts)
	}
	s.metrics.SweepFinished(string(state))
	s.mu.Lock()
	run.state = state
	run.errMsg = errMsg
	run.artifacts = artifacts
	run.finishedAt = time.Now()
	v := s.sweepViewLocked(run)
	s.mu.Unlock()
	close(run.done)
	if state == SweepCompleted {
		s.publish("sweep/"+run.id, "artifact-ready", struct {
			Artifacts []string `json:"artifacts"`
		}{v.Artifacts})
	}
	s.publish("sweep/"+run.id, "sweep-"+string(state), v)
	s.logf("service: sweep %s %s (%d/%d points, %d recovered)",
		run.id, state, run.completed, run.total, run.recovered)
}

// sweepViewLocked snapshots a sweep. Caller must hold s.mu.
func (s *Service) sweepViewLocked(run *sweepRun) SweepView {
	v := SweepView{
		ID:          run.id,
		State:       run.state,
		Spec:        run.spec,
		Error:       run.errMsg,
		Total:       run.total,
		Completed:   run.completed,
		Recovered:   run.recovered,
		Resumed:     run.recovered > 0,
		SubmittedAt: run.submittedAt,
	}
	if !run.finishedAt.IsZero() {
		t := run.finishedAt
		v.FinishedAt = &t
	}
	for name := range run.artifacts {
		v.Artifacts = append(v.Artifacts, name)
	}
	sort.Strings(v.Artifacts)
	return v
}

// Sweep returns the sweep with the given id. Sweeps this process never
// ran (owned by a peer replica, or finished before a restart) are
// reconstructed read-only from the shared journal.
func (s *Service) Sweep(id string) (SweepView, bool) {
	s.mu.Lock()
	run, ok := s.sweeps[id]
	if ok {
		defer s.mu.Unlock()
		return s.sweepViewLocked(run), true
	}
	s.mu.Unlock()
	return s.sweepFromDisk(id)
}

// Sweeps lists every known sweep, newest first.
func (s *Service) Sweeps() []SweepView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SweepView, 0, len(s.sweeps))
	for _, run := range s.sweeps {
		out = append(out, s.sweepViewLocked(run))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SubmittedAt.After(out[j].SubmittedAt) })
	return out
}

// WaitSweep blocks until the sweep reaches a terminal state or ctx
// fires.
func (s *Service) WaitSweep(ctx context.Context, id string) (SweepView, error) {
	s.mu.Lock()
	run, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		return SweepView{}, fmt.Errorf("service: unknown sweep %q", id)
	}
	select {
	case <-run.done:
	case <-ctx.Done():
		return SweepView{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepViewLocked(run), nil
}

// SweepArtifact returns one rendered artifact of a completed sweep and
// its content type.
func (s *Service) SweepArtifact(id, name string) (data []byte, contentType string, ok bool) {
	s.mu.Lock()
	run, found := s.sweeps[id]
	if found && run.artifacts != nil {
		data, ok = run.artifacts[name]
	}
	s.mu.Unlock()
	if !ok {
		// Persisted by a peer replica or a previous run of this daemon.
		data, ok = s.artifactFromDisk(id, name)
	}
	if !ok {
		return nil, "", false
	}
	return data, sweep.ArtifactContentType(name), true
}
