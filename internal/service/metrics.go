package service

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
)

// latencyBuckets are the upper bounds (seconds) of the per-job latency
// histogram, spanning cache hits (microseconds) to full-scale runs
// (minutes).
var latencyBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// Metrics aggregates the service's observable state. All methods are
// safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	submitted    uint64 // jobs accepted (including cache hits)
	completed    uint64 // jobs finished successfully
	failed       uint64 // jobs finished with a simulation error
	canceled     uint64 // jobs stopped by deadline or shutdown
	dedupHits    uint64 // submissions attached to an identical in-flight job
	storeHits    uint64 // submissions answered from the on-disk store
	queueFull    uint64 // submissions rejected because the queue was full
	running      int64  // jobs currently executing
	bucketCounts []uint64
	latencySum   float64
	latencyCount uint64

	sweepsSaturated uint64 // sweep submissions rejected at the concurrency cap
	// sweeps reads the sweep counters from the coordinator that owns
	// every sweep; nil reads zeros.
	sweeps func() dist.Snapshot

	// prefComponents accumulates per-component prefetch attribution
	// from composite (hybrid:*) scheme runs, keyed by component name.
	prefComponents map[string]*ComponentCount
}

// ComponentCount is one component's accumulated attribution totals.
type ComponentCount struct {
	Issued uint64 `json:"issued"`
	Useful uint64 `json:"useful"`
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		bucketCounts:   make([]uint64, len(latencyBuckets)+1),
		prefComponents: make(map[string]*ComponentCount),
	}
}

// PrefetchComponent accumulates one component's attribution from a
// freshly simulated composite-scheme run (job or sweep point).
func (m *Metrics) PrefetchComponent(name string, issued, useful uint64) {
	m.mu.Lock()
	c := m.prefComponents[name]
	if c == nil {
		c = &ComponentCount{}
		m.prefComponents[name] = c
	}
	c.Issued += issued
	c.Useful += useful
	m.mu.Unlock()
}

func (m *Metrics) incr(field *uint64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// Submitted records an accepted job.
func (m *Metrics) Submitted() { m.incr(&m.submitted) }

// DedupHit records a submission deduplicated onto an in-flight job.
func (m *Metrics) DedupHit() { m.incr(&m.dedupHits) }

// StoreHit records a submission served from the on-disk result store.
func (m *Metrics) StoreHit() { m.incr(&m.storeHits) }

// QueueFull records a submission rejected for lack of queue space.
func (m *Metrics) QueueFull() { m.incr(&m.queueFull) }

// SweepSaturated records a sweep submission rejected because the
// concurrent-sweep cap was reached.
func (m *Metrics) SweepSaturated() { m.incr(&m.sweepsSaturated) }

// JobStarted records a job entering execution.
func (m *Metrics) JobStarted() {
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
}

// JobFinished records a job leaving execution with the given outcome
// ("completed", "failed" or "canceled") and observes its latency.
func (m *Metrics) JobFinished(outcome string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	switch outcome {
	case "completed":
		m.completed++
	case "failed":
		m.failed++
	case "canceled":
		m.canceled++
	}
	secs := d.Seconds()
	m.latencySum += secs
	m.latencyCount++
	for i, ub := range latencyBuckets {
		if secs <= ub {
			m.bucketCounts[i]++
			return
		}
	}
	m.bucketCounts[len(latencyBuckets)]++
}

// Snapshot is a point-in-time copy of every counter, for JSON surfaces
// and tests.
type Snapshot struct {
	Submitted uint64 `json:"jobs_submitted"`
	Completed uint64 `json:"jobs_completed"`
	Failed    uint64 `json:"jobs_failed"`
	Canceled  uint64 `json:"jobs_canceled"`
	Running   int64  `json:"jobs_running"`
	DedupHits uint64 `json:"dedup_hits"`
	StoreHits uint64 `json:"store_hits"`
	QueueFull uint64 `json:"queue_full_rejections"`

	SweepsSubmitted uint64 `json:"sweeps_submitted"`
	SweepsCompleted uint64 `json:"sweeps_completed"`
	SweepsFailed    uint64 `json:"sweeps_failed"`
	SweepsCanceled  uint64 `json:"sweeps_canceled"`
	SweepsSaturated uint64 `json:"sweeps_saturated_rejections"`
	SweepPoints     uint64 `json:"sweep_points"`
	SweepRecovered  uint64 `json:"sweep_points_recovered"`

	PrefetchComponents map[string]ComponentCount `json:"prefetch_components,omitempty"`
}

// sweepCounters reads the coordinator's sweep counters.
func (m *Metrics) sweepCounters() dist.Snapshot {
	if m.sweeps == nil {
		return dist.Snapshot{}
	}
	return m.sweeps()
}

// Snapshot returns a copy of the current counters.
func (m *Metrics) Snapshot() Snapshot {
	d := m.sweepCounters()
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		Submitted: m.submitted,
		Completed: m.completed,
		Failed:    m.failed,
		Canceled:  m.canceled,
		Running:   m.running,
		DedupHits: m.dedupHits,
		StoreHits: m.storeHits,
		QueueFull: m.queueFull,

		SweepsSubmitted: d.SweepsSubmitted,
		SweepsCompleted: d.SweepsCompleted,
		SweepsFailed:    d.SweepsFailed,
		SweepsCanceled:  d.SweepsCanceled,
		SweepsSaturated: m.sweepsSaturated,
		SweepPoints:     d.PointsCompleted + d.PointsRecovered,
		SweepRecovered:  d.PointsRecovered,

		PrefetchComponents: m.componentsLocked(),
	}
}

// componentsLocked copies the per-component map; callers hold m.mu.
func (m *Metrics) componentsLocked() map[string]ComponentCount {
	if len(m.prefComponents) == 0 {
		return nil
	}
	out := make(map[string]ComponentCount, len(m.prefComponents))
	for k, v := range m.prefComponents {
		out[k] = *v
	}
	return out
}

// EngineCounters is the subset of engine state the exposition reports;
// it matches sim.Engine.Counters without importing it here.
type EngineCounters struct {
	Simulations, MemoHits, DedupWaits uint64
}

// WriteProm renders the metrics in Prometheus text exposition format.
// queueDepth, workers and activeSweeps are gauges owned by the
// service; engine carries the underlying engine's run-sharing
// counters.
func (m *Metrics) WriteProm(w io.Writer, queueDepth, workers, activeSweeps int, engine EngineCounters) {
	d := m.sweepCounters()
	m.mu.Lock()
	defer m.mu.Unlock()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("iprefetchd_jobs_submitted_total", "Jobs accepted, including cache and dedup hits.", m.submitted)
	counter("iprefetchd_jobs_completed_total", "Jobs finished successfully.", m.completed)
	counter("iprefetchd_jobs_failed_total", "Jobs finished with a simulation error.", m.failed)
	counter("iprefetchd_jobs_canceled_total", "Jobs stopped by deadline or shutdown.", m.canceled)
	counter("iprefetchd_dedup_hits_total", "Submissions deduplicated onto an identical in-flight job.", m.dedupHits)
	counter("iprefetchd_store_hits_total", "Submissions served from the on-disk result store.", m.storeHits)
	counter("iprefetchd_queue_full_rejections_total", "Submissions rejected because the queue was full.", m.queueFull)
	counter("iprefetchd_engine_simulations_total", "Simulations actually executed by the engine.", engine.Simulations)
	counter("iprefetchd_engine_memo_hits_total", "Engine runs answered from the in-memory memo.", engine.MemoHits)
	counter("iprefetchd_engine_dedup_waits_total", "Engine runs that joined an identical in-flight simulation.", engine.DedupWaits)
	counter("iprefetchd_sweeps_submitted_total", "Design-space sweeps accepted.", d.SweepsSubmitted)
	counter("iprefetchd_sweeps_completed_total", "Sweeps finished successfully.", d.SweepsCompleted)
	counter("iprefetchd_sweeps_failed_total", "Sweeps finished with an error.", d.SweepsFailed)
	counter("iprefetchd_sweeps_canceled_total", "Sweeps stopped by shutdown or by a superseded journal owner.", d.SweepsCanceled)
	counter("iprefetchd_sweeps_saturated_rejections_total", "Sweep submissions rejected at the concurrent-sweep cap.", m.sweepsSaturated)
	counter("iprefetchd_sweep_points_total", "Sweep grid points resolved.", d.PointsCompleted+d.PointsRecovered)
	counter("iprefetchd_sweep_points_recovered_total", "Sweep grid points replayed from checkpoints instead of simulated.", d.PointsRecovered)
	if len(m.prefComponents) > 0 {
		names := make([]string, 0, len(m.prefComponents))
		for n := range m.prefComponents {
			names = append(names, n)
		}
		sort.Strings(names)
		esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`)
		fmt.Fprintf(w, "# HELP iprefetchd_prefetch_component_issued_total Prefetches issued, attributed to composite-scheme components.\n# TYPE iprefetchd_prefetch_component_issued_total counter\n")
		for _, n := range names {
			fmt.Fprintf(w, "iprefetchd_prefetch_component_issued_total{component=\"%s\"} %d\n", esc.Replace(n), m.prefComponents[n].Issued)
		}
		fmt.Fprintf(w, "# HELP iprefetchd_prefetch_component_useful_total Useful prefetches, attributed to composite-scheme components.\n# TYPE iprefetchd_prefetch_component_useful_total counter\n")
		for _, n := range names {
			fmt.Fprintf(w, "iprefetchd_prefetch_component_useful_total{component=\"%s\"} %d\n", esc.Replace(n), m.prefComponents[n].Useful)
		}
	}
	gauge("iprefetchd_jobs_running", "Jobs currently executing.", m.running)
	gauge("iprefetchd_queue_depth", "Jobs waiting in the queue.", int64(queueDepth))
	gauge("iprefetchd_workers", "Worker goroutines in the pool.", int64(workers))
	gauge("iprefetchd_sweeps_running", "Sweeps currently executing.", int64(activeSweeps))

	// Cache hit ratio over all submissions that could have re-simulated.
	den := m.submitted
	var hits uint64 = m.dedupHits + m.storeHits + engine.MemoHits
	if den > 0 {
		fmt.Fprintf(w, "# HELP iprefetchd_cache_hit_ratio Fraction of submissions served without a fresh simulation.\n")
		fmt.Fprintf(w, "# TYPE iprefetchd_cache_hit_ratio gauge\n")
		ratio := float64(hits) / float64(den)
		if ratio > 1 {
			ratio = 1
		}
		fmt.Fprintf(w, "iprefetchd_cache_hit_ratio %.4f\n", ratio)
	}

	fmt.Fprintf(w, "# HELP iprefetchd_job_duration_seconds Per-job latency from start of execution to completion.\n")
	fmt.Fprintf(w, "# TYPE iprefetchd_job_duration_seconds histogram\n")
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += m.bucketCounts[i]
		fmt.Fprintf(w, "iprefetchd_job_duration_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)]
	fmt.Fprintf(w, "iprefetchd_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "iprefetchd_job_duration_seconds_sum %.6f\n", m.latencySum)
	fmt.Fprintf(w, "iprefetchd_job_duration_seconds_count %d\n", m.latencyCount)
}

// WriteRuntimeProm renders Go runtime health (goroutines, heap, GC
// pauses) and the build-info marker. Saturation investigations start
// here: a leaking SSE handler shows up as a goroutine ramp, an
// oversized quota table as heap growth.
func WriteRuntimeProm(w io.Writer, version string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("iprefetchd_goroutines", "Live goroutines.", uint64(runtime.NumGoroutine()))
	gauge("iprefetchd_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc)
	gauge("iprefetchd_heap_objects", "Allocated heap objects.", ms.HeapObjects)
	counter("iprefetchd_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))
	fmt.Fprintf(w, "# HELP iprefetchd_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n")
	fmt.Fprintf(w, "# TYPE iprefetchd_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "iprefetchd_gc_pause_seconds_total %.6f\n", float64(ms.PauseTotalNs)/1e9)
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`)
	fmt.Fprintf(w, "# HELP iprefetchd_build_info Build metadata; always 1.\n")
	fmt.Fprintf(w, "# TYPE iprefetchd_build_info gauge\n")
	fmt.Fprintf(w, "iprefetchd_build_info{version=\"%s\",go=\"%s\"} 1\n",
		esc.Replace(version), esc.Replace(runtime.Version()))
}
