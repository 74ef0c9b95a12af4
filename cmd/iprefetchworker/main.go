// Command iprefetchworker is a remote sweep worker: it registers with
// an iprefetchd coordinator, pulls shard leases of design-space grid
// points over HTTP, simulates them on a local memoising engine, and
// streams every completed point back while heartbeating its lease.
// Run as many workers as there are machines (or cores to spare); the
// coordinator shards one sweep across all of them, and a worker that
// dies mid-shard simply loses its lease — the points reinject and
// another worker finishes them, with idempotent submission keeping
// every point counted exactly once.
//
// Usage:
//
//	iprefetchworker -coordinator http://host:8080 [-name id]
//	                [-concurrency n] [-poll interval] [-trace-cache dir]
//	                [-pprof-addr addr] [-v]
//
// -trace-cache names a local directory used as a corpus cache: leases
// whose points replay trace:<id> workloads fetch the container from
// the coordinator (/v1/corpus/{id}) on first use, verify the bytes
// hash to the id, and serve every later lease from disk.
//
// The worker runs until SIGINT/SIGTERM (in-flight simulations are
// cancelled; their points reinject at the coordinator) or until the
// coordinator quarantines it after repeated failures.
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

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/sweep"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL(s), comma-separated for replicated control planes (e.g. http://a:8080,http://b:8080); required")
		name        = flag.String("name", "", "worker name in coordinator logs/metrics (default host-pid)")
		concurrency = flag.Int("concurrency", 1, "points simulated in parallel, across up to this many leases held at once")
		poll        = flag.Duration("poll", 500*time.Millisecond, "longest one lease request waits for new work (a new sweep or a reinjected shard answers it at once)")
		traceCache  = flag.String("trace-cache", "", "local corpus cache directory for trace:<id> workloads (empty = no trace replay)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		verbose     = flag.Bool("v", false, "log lease and point activity")
	)
	flag.Parse()
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "iprefetchworker: -coordinator is required")
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	logger := log.New(os.Stderr, "iprefetchworker: ", log.LstdFlags)
	if *pprofAddr != "" {
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	// A comma-separated -coordinator list names every replica of a
	// replicated control plane: the client retries against the next
	// replica when the current one is unreachable, so a coordinator
	// failover is invisible to the worker.
	urls := strings.Split(*coordinator, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
	}
	w := &dist.Worker{
		Coordinator:  dist.NewClient(urls[0], urls[1:]...),
		Name:         *name,
		Concurrency:  *concurrency,
		PollInterval: *poll,
	}
	if *traceCache != "" {
		store, err := corpus.Open(*traceCache)
		if err != nil {
			logger.Fatal(err)
		}
		w.Corpus = store
	}
	if *verbose {
		w.Logf = logger.Printf
		w.OnPoint = func(res sweep.PointResult) {
			logger.Printf("point %d done: ipc=%.4f (%.0fms)", res.Point.Index, res.IPC, float64(res.ElapsedMS))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("worker %s polling %s (concurrency=%d)", *name, *coordinator, *concurrency)
	err := w.Run(ctx)
	c := w.EngineCounters()
	logger.Printf("done (simulated=%d memo=%d): %v", c.Simulations, c.MemoHits, err)
	if err != nil && !errors.Is(err, context.Canceled) {
		os.Exit(1)
	}
}
