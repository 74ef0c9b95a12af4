// Command experiments regenerates the paper's evaluation: every figure
// (1-10) as a paper-style table, plus ablations beyond the paper.
//
// Usage:
//
//	experiments [-figure 1|2|...|10|a1..a10|all] [-n instrs] [-warm instrs]
//	            [-seed n] [-csv] [-md] [-o dir] [-v] [-parallel=false]
//	            [-timeout duration]
//	experiments -sweep spec.json [-checkpoint dir] [-workers n] [-data dir]
//	            [-fork-warm] [...]
//	experiments -sweep spec.json -dist-coordinator http://host:8080
//
// Instruction budgets are per core. The defaults run every figure in a
// few minutes on a laptop; raise -n for tighter numbers. -timeout bounds
// the whole regeneration (in-flight simulations are cancelled when it
// expires), and Ctrl-C cancels the same way.
//
// -sweep switches to design-space-exploration mode: the spec file is a
// sweep.Spec (axes over schemes, workloads, cores, table sizes,
// prefetch depth, cache geometry) that expands into a point grid and
// runs on a bounded worker pool. With -checkpoint, completed points
// journal to <dir>/<sweep-id>, so an interrupted sweep rerun with the
// same flags resumes without recomputing anything. Spec budgets, when
// set, override -n/-warm/-seed.
//
// -data points at an iprefetchd-style data directory whose corpus/
// subdirectory resolves trace:<sha256> workload axis values, so a sweep
// can replay recorded containers locally (see EXPERIMENTS.md "Sweeps
// over recorded traces").
//
// -dist-coordinator offloads the sweep instead of simulating locally:
// the spec is submitted to a running iprefetchd daemon, whose own
// in-process worker and any remote iprefetchworker processes execute
// the grid, and this command polls
// progress, downloads the artifacts and renders the same tables as the
// local path. Interrupting the poll does not cancel the sweep — rerun
// with the same spec to reattach (sweep identity is content-derived).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cmp"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

var (
	figure    = flag.String("figure", "all", "figure to reproduce: 1-10, a1-a10, or 'all'")
	measure   = flag.Uint64("n", 3_000_000, "measured instructions per core")
	warm      = flag.Uint64("warm", 1_500_000, "warm-up instructions per core")
	seed      = flag.Uint64("seed", 1, "workload seed")
	csvOut    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	mdOut     = flag.Bool("md", false, "emit markdown tables")
	outDir    = flag.String("o", "", "also write each table as a CSV file into this directory")
	verbose   = flag.Bool("v", false, "log each simulation run")
	parallel  = flag.Bool("parallel", true, "pre-run simulations concurrently")
	timeout   = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	sweepFile = flag.String("sweep", "", "run a design-space sweep from this spec JSON file instead of figures")
	ckptDir   = flag.String("checkpoint", "", "journal sweep points under this directory for resumable runs")
	workers   = flag.Int("workers", 0, "concurrent simulations in sweep mode (0 = GOMAXPROCS)")
	distURL   = flag.String("dist-coordinator", "", "submit the -sweep spec to this iprefetchd URL and let its workers run it")
	dataDir   = flag.String("data", "", "resolve trace:<id> workloads from the corpus under this data directory")
	forkWarm  = flag.Bool("fork-warm", false, "sweep mode: share warm-up across points via fork-and-diverge snapshots")
)

func main() {
	flag.Parse()

	if *dataDir != "" {
		store, err := corpus.Open(filepath.Join(*dataDir, "corpus"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cmp.RegisterTraceProvider(store.ReplaySource)
		traceStore = store
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *sweepFile != "" {
		run := runSweep
		if *distURL != "" {
			run = runDistSweep
		}
		if err := run(ctx, *sweepFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "sweep interrupted; rerun with the same flags to resume from the checkpoint")
			}
			os.Exit(1)
		}
		return
	}

	e := sim.NewEngine(*warm, *measure, *seed)
	if *verbose {
		e.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	want := strings.Split(*figure, ",")
	matched := false
	start := time.Now()
	// Pre-warm the full matrix concurrently when regenerating everything;
	// single figures warm implicitly through memoisation.
	if *parallel && selected(want, "all") {
		if err := e.WarmAllContext(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, fig := range e.Figures() {
		if !selected(want, fig.ID) {
			continue
		}
		matched = true
		t0 := time.Now()
		tables, err := fig.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", fig.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			emit(t)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "figure %s done in %s\n", fig.ID, time.Since(t0).Round(time.Millisecond))
		}
	}
	for _, abl := range e.Ablations() {
		if !selected(want, abl.ID) {
			continue
		}
		matched = true
		tables, err := abl.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablation %s: %v\n", abl.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			emit(t)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 1-10, a1-a10 or all)\n", *figure)
		os.Exit(2)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "total %s\n", time.Since(start).Round(time.Millisecond))
	}
}

func selected(want []string, id string) bool {
	for _, w := range want {
		w = strings.TrimSpace(w)
		if w == "all" || w == id {
			return true
		}
	}
	return false
}

func emit(t *stats.Table) {
	if *outDir != "" {
		if err := writeCSVFile(t); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	switch {
	case *csvOut:
		t.CSV(os.Stdout)
	case *mdOut:
		t.Markdown(os.Stdout)
	default:
		t.Render(os.Stdout)
	}
	fmt.Println()
}

// runSweep executes the -sweep mode: load a sweep.Spec, run its grid
// on a checkpointing runner, print the result tables, and (with -o)
// drop results.json/results.csv/pareto.csv next to the figure CSVs.
func runSweep(ctx context.Context, path string) error {
	spec, err := loadSpec(path)
	if err != nil {
		return err
	}

	// Spec budgets, when present, win over the -n/-warm/-seed flags so a
	// spec file is self-contained and reproducible.
	w, n, s := *warm, *measure, *seed
	if spec.WarmInstrs != 0 {
		w = spec.WarmInstrs
	}
	if spec.MeasureInstrs != 0 {
		n = spec.MeasureInstrs
	}
	if spec.Seed != 0 {
		s = spec.Seed
	}
	e := sim.NewEngine(w, n, s)
	if *verbose {
		e.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	id := spec.ID(w, n, s)

	var journal *sweep.Journal
	if *ckptDir != "" {
		journal, err = sweep.OpenJournal(filepath.Join(*ckptDir, id))
		if err != nil {
			return err
		}
	}
	var doneCount int
	runner := &sweep.Runner{
		Engine:  e,
		Workers: *workers,
		Journal: journal,
	}
	if *verbose {
		runner.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		runner.OnPoint = func(res sweep.PointResult) {
			doneCount++
			how := "simulated"
			if res.Recovered {
				how = "recovered"
			}
			fmt.Fprintf(os.Stderr, "sweep point %d %s (%d done)\n", res.Point.Index, how, doneCount)
		}
	}

	start := time.Now()
	out, err := runner.Run(ctx, spec)
	if err != nil {
		return err
	}
	art := out.Artifact()
	fmt.Fprintf(os.Stderr, "sweep %s: %d points (%d recovered, %d simulated) in %s\n",
		id, len(out.Points), out.Recovered, out.Simulated, time.Since(start).Round(time.Millisecond))

	emit(art.Table())
	if pt := art.ParetoTable(); pt != nil {
		emit(pt)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for name, data := range art.Files() {
			if err := os.WriteFile(filepath.Join(*outDir, name), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceStore is the corpus opened via -data (nil without it); besides
// replaying trace:<id> workloads it backs corpus:select(...) axes.
var traceStore *corpus.Store

// loadSpec reads, normalizes and validates a sweep.Spec JSON file.
// corpus:select(...) workload axes expand against the -data corpus
// fingerprint index before validation, exactly as the daemon does at
// submission.
func loadSpec(path string) (sweep.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return sweep.Spec{}, err
	}
	var spec sweep.Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return sweep.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	if *forkWarm {
		// Flag and spec field are OR'd: either opts the sweep into the
		// fork-and-diverge methodology (which is part of the sweep ID, so
		// fork and cold runs keep separate journals).
		spec.ForkWarm = true
	}
	var selectIDs func(string) ([]string, error)
	if traceStore != nil {
		selectIDs = traceStore.Select
	}
	if err := spec.Normalize(selectIDs); err != nil {
		return sweep.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return sweep.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runDistSweep executes the -dist-coordinator mode: the spec is
// submitted to a remote iprefetchd's sweep API, its workers (its own
// in-process one and any remote iprefetchworkers) run the grid, and
// this process only waits for it (dist.Client.WaitSweep) and renders
// the artifacts the daemon built.
func runDistSweep(ctx context.Context, path string) error {
	spec, err := loadSpec(path)
	if err != nil {
		return err
	}
	client := dist.NewClient(*distURL)
	v, err := client.SubmitSweep(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %d points on %s (%d recovered from its journal)\n",
		v.ID, v.Total, *distURL, v.Recovered)

	start := time.Now()
	var progress func(dist.SweepView)
	if *verbose {
		progress = func(v dist.SweepView) {
			fmt.Fprintf(os.Stderr, "sweep %s: %d/%d points (%d pending, %d leased)\n",
				v.ID, v.Completed, v.Total, v.Pending, v.Leased)
		}
	}
	if v, err = client.WaitSweep(ctx, v.ID, progress); err != nil {
		return err
	}
	if v.State != dist.SweepCompleted {
		return fmt.Errorf("sweep %s %s: %s", v.ID, v.State, v.Error)
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %d points done in %s (%d recovered)\n",
		v.ID, v.Completed, time.Since(start).Round(time.Millisecond), v.Recovered)

	data, err := client.Artifact(ctx, v.ID, "results.json")
	if err != nil {
		return err
	}
	var art sweep.Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return fmt.Errorf("decode results.json: %w", err)
	}
	emit(art.Table())
	if pt := art.ParetoTable(); pt != nil {
		emit(pt)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for _, name := range v.Artifacts {
			data, err := client.Artifact(ctx, v.ID, name)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*outDir, name), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSVFile stores the table as <outDir>/<slug-of-title>.csv.
func writeCSVFile(t *stats.Table) error {
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	slug := make([]rune, 0, len(t.Title))
	for _, r := range strings.ToLower(t.Title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			slug = append(slug, r)
		case r == ' ' || r == '-' || r == '_' || r == '(' || r == ')':
			if len(slug) > 0 && slug[len(slug)-1] != '-' {
				slug = append(slug, '-')
			}
		}
	}
	name := strings.Trim(string(slug), "-") + ".csv"
	f, err := os.Create(filepath.Join(*outDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	t.CSV(f)
	return nil
}
