package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/ctlplane"
	"repro/internal/dist"
	"repro/internal/sweep"
)

// This file wires the control-plane subsystem (internal/ctlplane) into
// the service: replicated ownership of the shared data root, SSE event
// streaming, and token-bucket admission control.

// Broker returns the SSE fan-out broker. Always non-nil.
func (s *Service) Broker() *ctlplane.Broker { return s.broker }

// publish fans one event out to a topic's SSE subscribers.
func (s *Service) publish(topic, typ string, data any) {
	s.broker.Publish(topic, typ, data)
}

// DrainStreams closes every live SSE stream with a final unnumbered
// "shutdown" event. The daemon calls this before the HTTP server's
// graceful shutdown so streaming handlers return instead of pinning the
// server open; idempotent, and Shutdown calls it too as a backstop.
func (s *Service) DrainStreams() {
	s.broker.Close("shutdown", struct {
		Reason string `json:"reason"`
	}{"draining"})
}

// Limiter returns the admission limiter, or nil when admission control
// is disabled.
func (s *Service) Limiter() *ctlplane.Limiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limiter
}

// EnableAdmission turns on token-bucket admission control for job and
// sweep submissions under cfg. Calling it again (SIGHUP hot reload)
// swaps the policy on the existing limiter so counters survive.
func (s *Service) EnableAdmission(cfg ctlplane.QuotaConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limiter == nil {
		s.limiter = ctlplane.NewLimiter(cfg)
		return
	}
	s.limiter.SetConfig(cfg)
}

// ReloadQuotaFile re-reads the quota policy from path and applies it;
// the daemon's SIGHUP handler. A broken file leaves the active policy
// untouched.
func (s *Service) ReloadQuotaFile(path string) error {
	cfg, err := ctlplane.LoadQuotaFile(path)
	if err != nil {
		return err
	}
	s.EnableAdmission(cfg)
	s.logf("service: quota policy reloaded from %s (%d client overrides)", path, len(cfg.Clients))
	return nil
}

// Replica returns this process's control-plane replica, or nil when
// replication is disabled (standalone daemon).
func (s *Service) Replica() *ctlplane.Replica { return s.replica.Load() }

// fenceJournal is the coordinator's journal fence: with replication on,
// a point is journaled only while this replica still holds the lease
// token it last acquired, so an owner that a peer has superseded can no
// longer write behind the new owner's journal replay.
func (s *Service) fenceJournal(write func() error) error {
	rep := s.Replica()
	if rep == nil {
		return write()
	}
	held, err := rep.Fence(write)
	if !held && err == nil {
		return fmt.Errorf("%w: replica %s (token %d)", dist.ErrFenced, rep.ID(), rep.Token())
	}
	return err
}

// EnableReplication joins the replicated-coordinator ownership protocol
// over the shared data root: replicas contend for a file lease under
// <data>/ctlplane, the winner serves writes (followers 307-redirect to
// its url), and on every leadership acquisition the new owner adopts
// unfinished sweeps left behind in the shared journal. Requires a
// ResultDir.
func (s *Service) EnableReplication(id, url string, ttl time.Duration) error {
	if s.cfg.ResultDir == "" {
		return fmt.Errorf("service: replication needs a data dir")
	}
	rep, err := ctlplane.StartReplica(ctlplane.ReplicaConfig{
		ID:  id,
		URL: url,
		Dir: filepath.Join(s.cfg.ResultDir, "ctlplane"),
		TTL: ttl,
		OnAcquire: func(token uint64) {
			s.logf("service: this replica owns the control plane (fencing token %d)", token)
			s.adoptOrphanedSweeps()
		},
		OnLose: func() {
			s.logf("service: this replica lost control-plane ownership")
		},
		Logf: s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	s.replica.Store(rep)
	return nil
}

// StopReplication leaves the ownership protocol, releasing the lease
// when held so a peer takes over immediately.
func (s *Service) StopReplication() {
	if rep := s.Replica(); rep != nil {
		rep.Stop(true)
	}
}

// SweepsAdopted counts sweeps this replica resumed from the shared
// journal after taking ownership.
func (s *Service) SweepsAdopted() uint64 { return atomic.LoadUint64(&s.adopted) }

// sweepMeta is the durable identity of a sweep, persisted next to its
// journal (spec.meta, not *.json so journal point counting is
// unaffected) so any replica can resume or serve it.
type sweepMeta struct {
	Spec        sweep.Spec `json:"spec"`
	Warm        uint64     `json:"warm_instrs"`
	Measure     uint64     `json:"measure_instrs"`
	Seed        uint64     `json:"seed"`
	Total       int        `json:"total_points"`
	SubmittedAt time.Time  `json:"submitted_at"`
}

const sweepMetaFile = "spec.meta"

// sweepDir is the shared journal directory of one sweep.
func (s *Service) sweepDir(id string) string {
	return filepath.Join(s.cfg.ResultDir, "sweeps", id)
}

// artifactDir holds one completed sweep's rendered artifacts on disk
// (the coordinator's ArtifactDir), outside the journal tree so *.json
// artifacts are not miscounted as checkpointed points.
func (s *Service) artifactDir(id string) string {
	return filepath.Join(s.cfg.ResultDir, "artifacts", id)
}

// writeSweepMeta persists a sweep's identity record atomically.
func writeSweepMeta(dir string, m sweepMeta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(dir, sweepMetaFile), data)
}

// readSweepMeta loads a sweep's identity record.
func readSweepMeta(dir string) (sweepMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, sweepMetaFile))
	if err != nil {
		return sweepMeta{}, err
	}
	var m sweepMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return sweepMeta{}, err
	}
	return m, nil
}

// adoptOrphanedSweeps scans the shared journal root for sweeps whose
// point count is short of their total — work a dead replica left behind,
// whichever workers ran it — and resubmits them. Identity is
// content-derived, so resubmission resumes from the journal:
// already-checkpointed points replay as recovered, and content-addressed
// checkpoint files make duplicates structurally impossible.
func (s *Service) adoptOrphanedSweeps() {
	if s.cfg.ResultDir == "" {
		return
	}
	root := filepath.Join(s.cfg.ResultDir, "sweeps")
	entries, err := os.ReadDir(root)
	if err != nil {
		return // nothing journaled yet
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		meta, err := readSweepMeta(filepath.Join(root, id))
		if err != nil {
			continue // pre-meta journal; nothing to adopt
		}
		// Re-derive the content identity; a meta whose spec no longer
		// hashes to its directory is corrupt and must not run.
		if got := meta.Spec.ID(meta.Warm, meta.Measure, meta.Seed); got != id {
			s.logf("service: adopt %s: meta identity mismatch (%s), skipping", id, got)
			continue
		}
		j, err := sweep.OpenJournal(filepath.Join(root, id))
		if err != nil {
			continue
		}
		n, err := j.Len()
		if err != nil || n >= meta.Total {
			continue // complete (or unreadable); nothing to finish
		}
		if v, ok := s.dist.Sweep(id); ok && v.State == SweepRunning {
			continue // already running here
		}
		// Resubmission must re-derive the same identity, which requires
		// this replica to resolve the same budgets the submitter did.
		// Identity hashes the spec verbatim plus resolved budgets, so
		// budgets cannot be pinned into the spec; mismatched defaults
		// (skewed replica config) make the sweep unadoptable here.
		warm, measure, seed := s.budgets(JobSpec{
			WarmInstrs: meta.Spec.WarmInstrs, MeasureInstrs: meta.Spec.MeasureInstrs, Seed: meta.Spec.Seed})
		if warm != meta.Warm || measure != meta.Measure || seed != meta.Seed {
			s.logf("service: adopt %s: budget defaults differ from submitter's (%d/%d/%d vs %d/%d/%d), skipping",
				id, warm, measure, seed, meta.Warm, meta.Measure, meta.Seed)
			continue
		}
		if _, err := s.SubmitSweep(meta.Spec); err != nil {
			s.logf("service: adopt %s: %v", id, err)
			continue
		}
		atomic.AddUint64(&s.adopted, 1)
		s.logf("service: adopted orphaned sweep %s (%d/%d points journaled)", id, n, meta.Total)
	}
}

// sweepFromDisk reconstructs a read-only view of a sweep this process
// never ran, from the shared journal — how follower replicas serve
// progress reads without proxying them to the owner.
func (s *Service) sweepFromDisk(id string) (SweepView, bool) {
	if s.cfg.ResultDir == "" {
		return SweepView{}, false
	}
	dir := s.sweepDir(id)
	meta, err := readSweepMeta(dir)
	if err != nil {
		return SweepView{}, false
	}
	j, err := sweep.OpenJournal(dir)
	if err != nil {
		return SweepView{}, false
	}
	n, err := j.Len()
	if err != nil {
		return SweepView{}, false
	}
	v := SweepView{
		ID:          id,
		State:       SweepRunning,
		Spec:        meta.Spec,
		Total:       meta.Total,
		Completed:   n,
		SubmittedAt: meta.SubmittedAt,
	}
	if names, err := os.ReadDir(s.artifactDir(id)); err == nil && len(names) > 0 {
		v.State = SweepCompleted
		for _, f := range names {
			if !f.IsDir() {
				v.Artifacts = append(v.Artifacts, f.Name())
			}
		}
	}
	return v, true
}

// WriteCtlplaneProm renders the control-plane metrics section: SSE
// broker fan-out, admission shedding, and replication role.
func (s *Service) WriteCtlplaneProm(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	st := s.broker.Stats()
	counter("iprefetchd_sse_events_published_total", "Numbered events fanned out to SSE subscribers.", st.Published)
	counter("iprefetchd_sse_subscribers_dropped_total", "SSE subscribers disconnected for not draining their buffer.", st.Dropped)
	gauge("iprefetchd_sse_subscribers", "Live SSE subscribers.", int64(st.Subscribers))
	gauge("iprefetchd_sse_topics", "Event topics with retained history.", int64(st.Topics))

	if l := s.Limiter(); l != nil {
		admitted, shed := l.Counters()
		counter("iprefetchd_admission_admitted_total", "Submissions admitted by the token-bucket limiter.", admitted)
		counter("iprefetchd_admission_shed_total", "Submissions shed with 429 by the token-bucket limiter.", shed)
		gauge("iprefetchd_admission_tracked_clients", "Client buckets currently tracked by the limiter.", int64(l.Tracked()))
	}
	if rep := s.Replica(); rep != nil {
		leading := int64(0)
		if rep.IsLeader() {
			leading = 1
		}
		gauge("iprefetchd_ctlplane_is_leader", "1 when this replica owns the control-plane lease.", leading)
		gauge("iprefetchd_ctlplane_lease_token", "Fencing token of this replica's current or last ownership.", int64(rep.Token()))
		counter("iprefetchd_ctlplane_sweeps_adopted_total", "Orphaned sweeps adopted from the shared journal on leadership changes.", s.SweepsAdopted())
	}
}
