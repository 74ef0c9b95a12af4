package dist

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of the coordinator's counters and
// derived gauges, for JSON surfaces and tests.
type Snapshot struct {
	WorkersRegistered  uint64 `json:"workers_registered"`
	WorkersAlive       int    `json:"workers_alive"`
	WorkersQuarantined uint64 `json:"workers_quarantined"`
	LeasesOutstanding  int    `json:"leases_outstanding"`
	LeasesGranted      uint64 `json:"leases_granted"`
	LeasesCompleted    uint64 `json:"leases_completed"`
	LeasesExpired      uint64 `json:"leases_expired"`
	LeasesFailed       uint64 `json:"leases_failed"`
	PointsCompleted    uint64 `json:"points_completed"`
	PointsDuplicate    uint64 `json:"points_duplicate"`
	PointsRecovered    uint64 `json:"points_recovered"`
	PointsReinjected   uint64 `json:"points_reinjected"`
	SweepsSubmitted    uint64 `json:"sweeps_submitted"`
	SweepsCompleted    uint64 `json:"sweeps_completed"`
	SweepsFailed       uint64 `json:"sweeps_failed"`
	SweepsCanceled     uint64 `json:"sweeps_canceled"`
	SweepsRunning      int    `json:"sweeps_running"`
}

// livenessWindow is how long after its last call a worker still counts
// as alive, in lease TTLs (a live worker heartbeats well inside one).
const livenessWindow = 3

// Snapshot returns a copy of the current counters and gauges.
func (c *Coordinator) Snapshot() Snapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	s := Snapshot{
		WorkersRegistered:  c.metrics.workersRegistered,
		WorkersQuarantined: c.metrics.workersQuarantined,
		LeasesOutstanding:  len(c.leases),
		LeasesGranted:      c.metrics.leasesGranted,
		LeasesCompleted:    c.metrics.leasesCompleted,
		LeasesExpired:      c.metrics.leasesExpired,
		LeasesFailed:       c.metrics.leasesFailed,
		PointsCompleted:    c.metrics.pointsCompleted,
		PointsDuplicate:    c.metrics.pointsDuplicate,
		PointsRecovered:    c.metrics.pointsRecovered,
		PointsReinjected:   c.metrics.pointsReinjected,
		SweepsSubmitted:    c.metrics.sweepsSubmitted,
		SweepsCompleted:    c.metrics.sweepsCompleted,
		SweepsFailed:       c.metrics.sweepsFailed,
		SweepsCanceled:     c.metrics.sweepsCanceled,
	}
	for _, ds := range c.sweeps {
		if ds.sstate == SweepRunning {
			s.SweepsRunning++
		}
	}
	for _, w := range c.workers {
		if !w.quarantined && now.Sub(w.lastSeen) < livenessWindow*c.cfg.LeaseTTL {
			s.WorkersAlive++
		}
	}
	return s
}

// labelValue sanitises a worker name for use inside a Prometheus label.
func labelValue(s string) string {
	r := strings.NewReplacer(`\`, ``, `"`, ``, "\n", "")
	return r.Replace(s)
}

// WriteProm renders the coordinator's metrics in Prometheus text
// exposition format: scheduler counters, lease/worker gauges, and
// per-worker throughput (points/sec since registration) and liveness.
// Sweep counts are left to the service's iprefetchd_sweeps_* series,
// which read the same Snapshot.
func (c *Coordinator) WriteProm(w io.Writer) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("iprefetchd_dist_workers_registered_total", "Workers ever registered with the coordinator.", c.metrics.workersRegistered)
	counter("iprefetchd_dist_workers_quarantined_total", "Workers quarantined after repeated lease failures.", c.metrics.workersQuarantined)
	counter("iprefetchd_dist_leases_granted_total", "Shard leases handed to workers.", c.metrics.leasesGranted)
	counter("iprefetchd_dist_leases_completed_total", "Leases whose shard finished cleanly.", c.metrics.leasesCompleted)
	counter("iprefetchd_dist_leases_expired_total", "Leases reaped after missing their heartbeat TTL.", c.metrics.leasesExpired)
	counter("iprefetchd_dist_leases_failed_total", "Leases abandoned by workers reporting an error.", c.metrics.leasesFailed)
	counter("iprefetchd_dist_points_completed_total", "Grid points accepted from workers (first delivery only).", c.metrics.pointsCompleted)
	counter("iprefetchd_dist_points_duplicate_total", "Idempotent re-deliveries of already-completed points.", c.metrics.pointsDuplicate)
	counter("iprefetchd_dist_points_recovered_total", "Grid points replayed from the journal at submission.", c.metrics.pointsRecovered)
	counter("iprefetchd_dist_points_reinjected_total", "Grid points requeued after a lease expired or failed.", c.metrics.pointsReinjected)
	gauge("iprefetchd_dist_leases_outstanding", "Leases currently held by workers.", int64(len(c.leases)))

	pending := 0
	for _, ds := range c.sweeps {
		pending += len(ds.pending)
	}
	gauge("iprefetchd_dist_points_pending", "Grid points waiting to be leased.", int64(pending))

	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(w, "# HELP iprefetchd_dist_worker_points_total Points delivered per worker.\n# TYPE iprefetchd_dist_worker_points_total counter\n")
	for _, id := range ids {
		wk := c.workers[id]
		fmt.Fprintf(w, "iprefetchd_dist_worker_points_total{worker=\"%s/%s\"} %d\n", wk.id, labelValue(wk.name), wk.points)
	}
	fmt.Fprintf(w, "# HELP iprefetchd_dist_worker_points_per_sec Point throughput per worker since registration.\n# TYPE iprefetchd_dist_worker_points_per_sec gauge\n")
	for _, id := range ids {
		wk := c.workers[id]
		secs := now.Sub(wk.registeredAt).Seconds()
		rate := 0.0
		if secs > 0 {
			rate = float64(wk.points) / secs
		}
		fmt.Fprintf(w, "iprefetchd_dist_worker_points_per_sec{worker=\"%s/%s\"} %.4f\n", wk.id, labelValue(wk.name), rate)
	}
	fmt.Fprintf(w, "# HELP iprefetchd_dist_worker_alive 1 while the worker heartbeats within the liveness window (and is not quarantined).\n# TYPE iprefetchd_dist_worker_alive gauge\n")
	for _, id := range ids {
		wk := c.workers[id]
		alive := 0
		if !wk.quarantined && now.Sub(wk.lastSeen) < livenessWindow*c.cfg.LeaseTTL {
			alive = 1
		}
		fmt.Fprintf(w, "iprefetchd_dist_worker_alive{worker=\"%s/%s\"} %d\n", wk.id, labelValue(wk.name), alive)
	}
}
