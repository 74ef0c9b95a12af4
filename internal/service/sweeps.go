package service

import (
	"context"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The embedded dist.Coordinator owns every sweep's state; this file is
// the service's face onto it. Local execution is an in-process
// dist.Worker pulling leases from that coordinator, so local and remote
// points reach the journal through the one Coordinator.SubmitPoint.

// SweepState is the lifecycle of a design-space sweep.
type SweepState = dist.SweepState

// Sweep lifecycle states.
const (
	SweepRunning   = dist.SweepRunning
	SweepCompleted = dist.SweepCompleted
	SweepFailed    = dist.SweepFailed
	SweepCanceled  = dist.SweepCanceled
)

// SweepView is the wire form of a sweep.
type SweepView = dist.SweepView

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

	// s.mu serialises submissions, so the cap check and the submit are
	// one step.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SweepView{}, ErrClosed
	}
	if v, ok := s.dist.Sweep(id); ok && v.State != SweepCanceled {
		return v, nil
	}
	if s.ActiveSweeps() >= s.cfg.MaxActiveSweeps {
		s.metrics.SweepSaturated()
		return SweepView{}, ErrSweepsSaturated
	}
	if s.cfg.ResultDir != "" {
		// Persist the sweep's identity next to its journal so any
		// replica can resume it (leadership takeover) or serve its
		// progress without having run it.
		if err := writeSweepMeta(s.sweepDir(id), sweepMeta{
			Spec: spec, Warm: warm, Measure: measure, Seed: seed,
			Total: len(points), SubmittedAt: time.Now(),
		}); err != nil {
			s.logf("service: sweep %s: persist meta: %v", id, err)
		}
	}
	return s.dist.Submit(spec)
}

// Sweep returns the sweep with the given id. Sweeps this process never
// ran (owned by a peer replica, or finished before a restart) are
// reconstructed read-only from the shared journal.
func (s *Service) Sweep(id string) (SweepView, bool) {
	if v, ok := s.dist.Sweep(id); ok {
		return v, true
	}
	return s.sweepFromDisk(id)
}

// Sweeps lists every sweep this process holds, in submission order.
func (s *Service) Sweeps() []SweepView { return s.dist.Sweeps() }

// WaitSweep blocks until the sweep reaches a terminal state or ctx
// fires.
func (s *Service) WaitSweep(ctx context.Context, id string) (SweepView, error) {
	return s.dist.Wait(ctx, id)
}

// SweepArtifact returns one rendered artifact of a completed sweep and
// its content type, also for sweeps a peer replica or an earlier run
// of this daemon completed.
func (s *Service) SweepArtifact(id, name string) (data []byte, contentType string, ok bool) {
	return s.dist.Artifact(id, name)
}

// runSweepWorker is the daemon's local sweep executor: an in-process
// dist.Worker that pulls leases straight from the embedded coordinator
// and runs them on the service's engines, Config.Workers points at a
// time across the leases it holds, so EngineCounters counts every point
// and trace:<id> workloads replay through the daemon's own corpus
// provider. The coordinator never quarantines it, and a point it fails
// fails its sweep.
func (s *Service) runSweepWorker(ctx context.Context) {
	defer s.wg.Done()
	w := &dist.Worker{
		Coordinator: s.dist,
		Name:        "local",
		Concurrency: s.cfg.Workers,
		Logf:        s.cfg.Logf,
		Engines: func(warm, measure, seed uint64) *sim.Engine {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.engineFor(warm, measure, seed)
		},
		OnPoint: func(res sweep.PointResult) {
			for _, c := range res.Components {
				s.metrics.PrefetchComponent(c.Name, c.Issued, c.Useful)
			}
		},
	}
	if err := w.Run(ctx); ctx.Err() == nil {
		s.logf("service: local sweep worker stopped: %v", err)
	}
}
