// Command iprefetchd serves the simulation engine as a long-lived HTTP
// daemon: clients POST simulation specs (machine config + workload +
// prefetcher + budgets) to a bounded job queue, poll job status, and
// fetch paper figures. Identical in-flight specs share one simulation,
// and completed results persist in a content-addressed store so a
// restarted daemon answers repeated specs from disk.
//
// The daemon also runs design-space sweeps (internal/sweep): POST a
// sweep.Spec with axes over schemes, workloads, cores, table sizes,
// prefetch depth and cache geometry; the grid shards into leases and
// the sweep exports results.json / results.csv / pareto.csv artifacts.
// With -data set, every finished point checkpoints to
// <data>/sweeps/<id>, and because sweep ids are content-derived, a
// sweep interrupted by a daemon restart resumes from disk when the
// same spec is POSTed again — zero points recomputed.
//
// Every sweep is owned by the daemon's embedded coordinator
// (internal/dist). An in-process worker runs its leases on the worker
// pool, and remote iprefetchworker processes may join under /v1/dist:
// they register, pull grid shards as heartbeat-renewed leases, and
// stream completed points back; expired leases reinject automatically
// and point submission is idempotent, so worker crashes cost retries,
// never correctness.
//
// Endpoints:
//
//	POST /v1/jobs         submit a spec (?wait=1 blocks until done)
//	GET  /v1/jobs         list jobs
//	GET  /v1/jobs/{id}    job status + result
//	POST /v1/sweeps       launch a design-space sweep (?wait=1 blocks)
//	GET  /v1/sweeps       list sweeps
//	GET  /v1/sweeps/{id}  sweep progress (completed/total points)
//	GET  /v1/sweeps/{id}/artifacts/{name}  download a sweep artifact
//	GET  /v1/figures/{id} run a paper figure ("1".."10") or ablation ("a1".."a10")
//	POST /v1/corpus       upload a trace container (needs -data; size-capped)
//	GET  /v1/corpus       list trace-corpus entries (?select=<expr> filters by
//	                      fingerprint, e.g. select=footprint>4096,cti>0.1)
//	GET  /v1/corpus/{id}[/manifest]      download a container / its manifest
//	GET  /v1/corpus/{id}/chunks/{chunk}  one raw CAS chunk (federation unit)
//	POST /v1/dist/workers                submit a worker registration
//	POST /v1/dist/leases[/{id}/renew|complete|fail]  lease lifecycle
//	POST /v1/dist/sweeps/{id}/points     deliver a completed point
//	GET  /v1/jobs/{id}/events            SSE progress stream for a job
//	GET  /v1/sweeps/{id}/events          SSE progress stream for a sweep
//	GET  /healthz         liveness + counters + replica role
//	GET  /metrics         Prometheus text exposition (service + dist + ctlplane + runtime)
//
// Control plane at scale: -replica-id (with a shared -data directory
// on every replica) joins the replicated-coordinator protocol —
// replicas contend for a file lease, the owner serves writes (and
// -advertise tells followers where to 307-redirect them), any replica
// serves reads, and a new owner adopts sweeps its predecessor left
// unfinished. -quotas points at a JSON admission policy (per-client
// token buckets); SIGHUP re-reads it without a restart.
//
// Corpus at scale: -peers lists other daemons' base URLs; a sweep
// pinned to a trace:<id> this daemon's store lacks pulls the manifest
// and only the missing chunks from the first peer that has the entry
// (shared chunks are never re-transferred). -gc enables a periodic
// mark-and-sweep over the chunk CAS — live manifests, in-flight
// ingests, and every trace id named by a sweep journal under -data
// are roots — with -gc-grace protecting recent writes and
// -gc-dry-run reporting instead of deleting. Sweeps may also select
// workloads by fingerprint: a "corpus:select(footprint>4096,cti>0.1)"
// workload axis expands to the matching trace:<id> set at submission.
//
// Example:
//
//	iprefetchd -addr :8080 -data ./results &
//	curl -s localhost:8080/v1/jobs?wait=1 -d '{"workload":"DB","cores":4,"scheme":"discontinuity","bypass":true}'
//	curl -s localhost:8080/v1/sweeps -d '{"schemes":["discontinuity","nl-miss"],"workloads":["DB","TPC-W"],"table_entries":[512,1024,2048]}'
//	iprefetchworker -coordinator http://localhost:8080   # as many as you like
//
// SIGINT/SIGTERM drain gracefully: open SSE streams receive a final
// `shutdown` event and close, the queue stops accepting jobs, running
// simulations finish (up to -drain), then the process exits.
// -pprof-addr exposes net/http/pprof on a separate, opt-in listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the opt-in -pprof-addr listener only
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// version is stamped by the build (go build -ldflags "-X main.version=...")
// and exported as iprefetchd_build_info on /metrics.
var version = "dev"

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		workers    = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "max queued jobs before submissions get 503")
		dataDir    = flag.String("data", "", "result store directory (empty = no persistence)")
		warm       = flag.Uint64("warm", 1_500_000, "default warm-up instructions per core")
		measure    = flag.Uint64("n", 3_000_000, "default measured instructions per core")
		seed       = flag.Uint64("seed", 1, "default workload seed")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "default per-job deadline (0 = none)")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown grace period before cancelling running jobs")
		maxSweeps  = flag.Int("max-sweeps", 8, "max concurrently running sweeps before submissions get 503")
		leaseTTL   = flag.Duration("lease-ttl", 30*time.Second, "sweep lease lifetime between worker heartbeats")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		corpusCap  = flag.Int64("corpus-max-upload", 0, "max trace-container upload size in bytes (0 = 64 MiB default)")
		replicaID  = flag.String("replica-id", "", "join the replicated control plane under this replica name (needs shared -data)")
		advertise  = flag.String("advertise", "", "base URL other replicas redirect writes to when this replica owns the lease (e.g. http://host:8080)")
		replicaTTL = flag.Duration("replica-ttl", 10*time.Second, "control-plane lease lifetime; a dead owner is superseded after this long")
		quotas     = flag.String("quotas", "", "JSON admission-quota policy file (per-client token buckets); SIGHUP re-reads it")
		heartbeat  = flag.Duration("sse-heartbeat", 15*time.Second, "SSE keepalive interval on event streams")
		peers      = flag.String("peers", "", "comma-separated peer daemon base URLs for corpus chunk federation (needs -data)")
		gcEvery    = flag.Duration("gc", 0, "corpus GC interval (0 = disabled; needs -data)")
		gcGrace    = flag.Duration("gc-grace", 0, "corpus GC grace window for recent chunks (0 = 1h default, negative = none)")
		gcDryRun   = flag.Bool("gc-dry-run", false, "corpus GC reports what it would delete without deleting")
	)
	flag.Parse()

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}

	logger := log.New(os.Stderr, "iprefetchd: ", log.LstdFlags)
	svc, err := service.New(service.Config{
		Workers:              *workers,
		QueueDepth:           *queueDepth,
		ResultDir:            *dataDir,
		DefaultWarmInstrs:    *warm,
		DefaultMeasureInstrs: *measure,
		Seed:                 *seed,
		DefaultTimeout:       *jobTimeout,
		MaxActiveSweeps:      *maxSweeps,
		DistLeaseTTL:         *leaseTTL,
		MaxCorpusUploadBytes: *corpusCap,
		CorpusPeers:          peerList,
		CorpusGCInterval:     *gcEvery,
		CorpusGCGrace:        *gcGrace,
		CorpusGCDryRun:       *gcDryRun,
		SSEHeartbeat:         *heartbeat,
		Version:              version,
		Logf:                 logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	if *quotas != "" {
		if err := svc.ReloadQuotaFile(*quotas); err != nil {
			logger.Fatal(err)
		}
		// SIGHUP hot-reloads the admission policy; a broken file logs
		// and leaves the active policy untouched.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := svc.ReloadQuotaFile(*quotas); err != nil {
					logger.Printf("quota reload: %v", err)
				}
			}
		}()
	}
	if *replicaID != "" {
		url := *advertise
		if url == "" {
			url = "http://" + *addr
		}
		if err := svc.EnableReplication(*replicaID, url, *replicaTTL); err != nil {
			logger.Fatal(err)
		}
	}

	if *pprofAddr != "" {
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: service.Handler(svc)}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (workers=%d queue=%d data=%q)",
			*addr, svc.Workers(), *queueDepth, *dataDir)
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Printf("shutdown signal received, draining (max %s)", *drain)
	case err := <-errc:
		logger.Fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Close SSE streams (each gets a final `shutdown` event) before the
	// HTTP server shutdown — otherwise open streams would hold
	// srv.Shutdown until the drain deadline.
	svc.DrainStreams()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Printf("queue drain: %v", err)
	}
	snap := svc.Metrics().Snapshot()
	fmt.Fprintf(os.Stderr, "iprefetchd: done (completed=%d failed=%d canceled=%d)\n",
		snap.Completed, snap.Failed, snap.Canceled)
}
