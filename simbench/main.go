// Command simbench is the simulator's end-to-end benchmark. One process
// runs one named workload for a fixed time and prints, as the last line
// of standard output, one JSON object with the operations attempted and
// failed, whether every output passed its reference checks, and the
// workload's metrics: the end-to-end metrics when untraced, the
// per-layer metrics when traced.
//
// Workloads (closed loop, one client, fixed inputs derived from -seed):
//
//	cmp-cold      cold two-phase 4-core points, a fresh sim.Engine each
//	trace-replay  the same points replaying recorded corpus traces
//	daemon-sweep  fork-warm and cold sweeps through an in-process daemon
//
// Usage:
//
//	simbench -workload cmp-cold -seed 1 -seconds 20 -trace 0 [-short] [-out dir]
//
// See README.md for the metrics, the checks and the measured spread.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	// out receives the span file and the run's temporary data
	// directories (removed at the end).
	out string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		opts  options
		trace int
	)
	flag.StringVar(&opts.workload, "workload", "cmp-cold", "workload: "+workloadList())
	flag.Uint64Var(&opts.seed, "seed", 1, "input seed")
	flag.Float64Var(&opts.seconds, "seconds", 20, "measured time: whole rounds are run until it has passed")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.BoolVar(&opts.short, "short", false, "tiny budgets and one round (tests)")
	flag.StringVar(&opts.out, "out", ".bench_out", "directory for the span file and temporary data")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "simbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opts.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, opts, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		stop()
		os.Exit(1)
	}
}

// workloadFns maps workload names to their runners.
var workloadFns = map[string]func(ctx context.Context, b *bench) error{
	"cmp-cold":     runCMPCold,
	"trace-replay": runTraceReplay,
	"daemon-sweep": runDaemonSweep,
}

func workloadList() string {
	names := make([]string, 0, len(workloadFns))
	for n := range workloadFns {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run executes one benchmark run and returns its printed result. Check
// failures are reported in the result (Correct false, details on log);
// an error means the run could not be carried out at all.
func run(ctx context.Context, opts options, log io.Writer) (*result, error) {
	fn, ok := workloadFns[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, workloadList())
	}
	if opts.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	b, err := newBench(opts, log)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	if err := fn(ctx, b); err != nil {
		return nil, err
	}
	if opts.trace {
		if err := b.layerSuite(ctx); err != nil {
			return nil, err
		}
		if err := b.writeSpans(); err != nil {
			return nil, err
		}
	}
	return b.result(), nil
}
