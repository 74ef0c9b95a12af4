package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/cmp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// budgets fixes how much simulated work one run does. Every run of a
// workload does the same simulated work per round, whatever its seed.
type budgets struct {
	// warm / measure are per-core instruction budgets of cmp-cold and
	// trace-replay points.
	warm, measure uint64
	// sweepWarm / sweepMeasure are the per-core budgets of daemon
	// sweeps: warm-dominated, so forking the warm phase pays.
	sweepWarm, sweepMeasure uint64
	// setupReps is how many times set-up is timed; setup_s is the
	// median. Trace recording and ingest make trace-replay's set-up
	// long, so it is timed fewer times.
	setupReps, traceSetupReps int
	// layerBlocks is the length of the block stream the traced layer
	// suite replays; layerReps how often each layer step is timed.
	layerBlocks, layerReps int
	// oneRound stops after the first round whatever -seconds says.
	oneRound bool
}

func budgetsFor(short bool) budgets {
	if short {
		return budgets{warm: 2_000, measure: 6_000, sweepWarm: 6_000, sweepMeasure: 2_000,
			setupReps: 1, traceSetupReps: 1, layerBlocks: 4_000, layerReps: 1, oneRound: true}
	}
	return budgets{warm: 50_000, measure: 150_000, sweepWarm: 200_000, sweepMeasure: 40_000,
		setupReps: 7, traceSetupReps: 3, layerBlocks: 100_000, layerReps: 3}
}

// scheme is one prefetch configuration of the point lists.
type scheme struct {
	// slug names the scheme in metric names.
	slug string
	// name is the prefetch registry name.
	name   string
	bypass bool
}

// schemes are the configurations every workload runs: the baseline,
// the paper's sequential and discontinuity schemes (the latter with
// its Section 7 L2 bypass), the MANA and program-map ports and one
// hybrid of them.
var schemes = []scheme{
	{"none", "none", false},
	{"n4l-tagged", "n4l-tagged", false},
	{"discontinuity", "discontinuity", true},
	{"mana", "mana", false},
	{"progmap", "progmap", false},
	{"hybrid", "hybrid:discontinuity+mana", false},
}

// slugOf maps a registry name back to its metric slug.
func slugOf(name string) string {
	for _, s := range schemes {
		if s.name == name {
			return s.slug
		}
	}
	return name
}

// pointWorkloads are the CMP workloads of cmp-cold and trace-replay:
// three paper applications, the multiprogrammed Mix, and the
// Microservice profile whose code footprint exceeds the 2 MB L2.
var pointWorkloads = []string{"DB", "jApp", "Web", "Mixed", "Microservice"}

// paperWorkloads are the point workloads the paper charts, on which
// the discontinuity and sequential schemes must beat no prefetching.
var paperWorkloads = []string{"DB", "jApp", "Web", "Mixed"}

// sweepWorkload is the workload of the daemon sweeps.
const sweepWorkload = "Mixed"

// cores is the machine width of every timed operation (the paper CMP).
const cores = 4

// opRecord is one timed operation.
type opRecord struct {
	seconds float64
	failed  bool
}

// bench is the state of one run.
type bench struct {
	opts options
	b    budgets
	log  io.Writer
	tr   *tracer
	// dir holds the run's temporary data directories.
	dir string
	// simSeed drives the workload generators of every point.
	simSeed uint64

	setup []float64
	ops   []opRecord
	// instrs counts simulated instructions of the timed operations.
	instrs float64
	// allocBytes counts heap bytes allocated during the timed loop.
	allocBytes float64
	problems   []string
	// counts are the per-layer metrics measured by the operations.
	counts map[string]metric
	// layers are the per-layer metrics of the traced layer suite.
	layers map[string]metric
	// cleanups run at the end of the run, last first.
	cleanups []func()
}

func newBench(opts options, log io.Writer) (*bench, error) {
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.out, "data-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		opts:    opts,
		b:       budgetsFor(opts.short),
		log:     log,
		tr:      newTracer(opts.trace),
		dir:     dir,
		simSeed: mix(opts.seed, 0),
		counts:  make(map[string]metric),
		layers:  make(map[string]metric),
	}
	b.onCleanup(func() { os.RemoveAll(dir) })
	return b, nil
}

func (b *bench) onCleanup(fn func()) { b.cleanups = append(b.cleanups, fn) }

func (b *bench) cleanup() {
	for i := len(b.cleanups) - 1; i >= 0; i-- {
		b.cleanups[i]()
	}
	b.cleanups = nil
}

// fail records a check failure; the run reports correct=false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(b.log, "simbench: check failed:", msg)
}

// check records err as a check failure when non-nil.
func (b *bench) check(err error) {
	if err != nil {
		b.fail("%v", err)
	}
}

// mix derives a non-zero seed from a and b (splitmix64 finaliser).
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// timeSetup times reps set-up repetitions and keeps the last one's
// state: fn is told whether it is the last repetition.
func (b *bench) timeSetup(reps int, fn func(rep int, last bool) error) error {
	for rep := 0; rep < reps; rep++ {
		h := b.tr.begin("setup", -1, -1)
		start := time.Now()
		if err := fn(rep, rep == reps-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		b.tr.end(h, 0)
		// Repetitions leave behind the state they do not keep; collect
		// it untimed so every run starts its operations from the same
		// heap and the repetitions do not inflate peak_rss_mb.
		runtime.GC()
	}
	return nil
}

// buildImages builds the program images of the named workloads on
// cores cores. The first repetition builds them through cmp.SourcesFor,
// which fills the process-wide image cache every later simulation
// reads; later repetitions build the same (profile, address space)
// images with workload.BuildProgram, so every repetition does the
// same work.
func (b *bench) buildImages(rep int, names []string) error {
	if rep == 0 {
		for _, n := range names {
			w, ok := sim.WorkloadByName(n, true)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			h := b.tr.begin("cmp.SourcesFor", -1, -1)
			_, err := cmp.SourcesFor(w.Apps, cores, b.simSeed)
			b.tr.end(h, 0)
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, img := range imagesOf(names) {
		prof, err := workload.ByName(img.name)
		if err != nil {
			return err
		}
		h := b.tr.begin("workload.BuildProgram", -1, -1)
		_, err = workload.BuildProgram(prof, img.asid)
		b.tr.end(h, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

type image struct {
	name string
	asid uint64
}

// imagesOf lists the distinct program images cmp.SourcesFor builds for
// the named workloads: within one machine each distinct application
// gets the next address space, in order of first appearance.
func imagesOf(names []string) []image {
	seen := make(map[image]bool)
	var out []image
	for _, n := range names {
		w, _ := sim.WorkloadByName(n, true)
		asid := map[string]uint64{}
		for _, app := range w.Apps {
			if _, ok := asid[app]; !ok {
				asid[app] = uint64(len(asid))
			}
			img := image{app, asid[app]}
			if !seen[img] {
				seen[img] = true
				out = append(out, img)
			}
		}
	}
	return out
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapAllocObjects reads the cumulative heap allocation count.
func heapAllocObjects() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// rounds runs round until -seconds have passed since the first round
// began (always whole rounds), and accounts the loop's heap
// allocations. It returns the number of rounds run.
func (b *bench) rounds(ctx context.Context, round func(r int) error) (int, error) {
	start := time.Now()
	alloc0 := heapAllocBytes()
	n := 0
	for {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if err := round(n); err != nil {
			return n, err
		}
		n++
		if b.b.oneRound || time.Since(start).Seconds() >= b.opts.seconds {
			break
		}
	}
	b.allocBytes += heapAllocBytes() - alloc0
	return n, nil
}

// op times one operation. fn returns the simulated instructions it
// executed; an error marks the operation failed.
func (b *bench) op(name string, fn func(op, span int) (float64, error)) error {
	id := len(b.ops)
	h := b.tr.begin("op:"+name, -1, id)
	start := time.Now()
	instrs, err := fn(id, h)
	secs := time.Since(start).Seconds()
	b.tr.end(h, 0)
	rec := opRecord{seconds: secs}
	if err != nil {
		rec.failed = true
		fmt.Fprintf(b.log, "simbench: operation %s failed: %v\n", name, err)
	} else {
		b.instrs += instrs
	}
	b.ops = append(b.ops, rec)
	return err
}

// peakRSSBytes reads the process's peak resident set (VmHWM).
func peakRSSBytes() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// result assembles the printed object.
func (b *bench) result() *result {
	res := &result{Correct: len(b.problems) == 0, Metrics: make(map[string]metric)}
	var secs []float64
	total := 0.0
	for _, o := range b.ops {
		res.Attempted++
		if o.failed {
			res.Failed++
			continue
		}
		secs = append(secs, o.seconds)
		total += o.seconds
	}
	if res.Attempted == 0 {
		res.Correct = false
	}
	if b.opts.trace {
		for k, v := range b.layers {
			res.Metrics[k] = v
		}
		for k, v := range b.counts {
			res.Metrics[k] = v
		}
		return res
	}
	ok := len(secs)
	if ok == 0 {
		ok = 1
	}
	res.Metrics["setup_s"] = metric{median(b.setup), "s"}
	res.Metrics["op_ms"] = metric{median(secs) * 1e3, "ms"}
	if total > 0 {
		res.Metrics["minstr_per_s"] = metric{b.instrs / total / 1e6, "Minstr/s"}
	}
	res.Metrics["alloc_mb_per_op"] = metric{b.allocBytes / float64(ok) / 1e6, "MB"}
	if rss, err := peakRSSBytes(); err == nil {
		res.Metrics["peak_rss_mb"] = metric{rss / 1e6, "MB"}
	} else {
		b.fail("peak RSS: %v", err)
		res.Correct = false
	}
	return res
}

// writeSpans stores the run's spans next to its other output.
func (b *bench) writeSpans() error {
	name := fmt.Sprintf("spans-%s-seed%d.json", b.opts.workload, b.opts.seed)
	return b.tr.write(filepath.Join(b.opts.out, name))
}

// pointStats is the simulated outcome of one point, from a sim.Result
// or a sweep journal entry.
type pointStats struct {
	slug                   string
	ipc, l1iRate, l2iRate  float64
	instrs, issued, useful uint64
}

func statsOfResult(slug string, res sim.Result) pointStats {
	t := res.Total
	return pointStats{slug: slug, ipc: t.IPC(), l1iRate: t.L1I.PerInstr(t.Instructions),
		l2iRate: t.L2I.PerInstr(t.Instructions), instrs: t.Instructions,
		issued: t.Prefetch.Issued, useful: t.Prefetch.Useful}
}

// addSchemeStats records, per scheme, the mean IPC and miss and issue
// rates over the scheme's points and the pooled prefetch accuracy
// (useful over issued prefetches). These are simulated results: they
// repeat exactly for a seed, traced or not.
func (b *bench) addSchemeStats(points []pointStats) {
	for _, s := range schemes {
		var n, ipc, l1i, l2i, pki float64
		var issued, useful uint64
		for _, p := range points {
			if p.slug != s.slug || p.instrs == 0 {
				continue
			}
			n++
			ipc += p.ipc
			l1i += 1e3 * p.l1iRate
			l2i += 1e3 * p.l2iRate
			pki += 1e3 * float64(p.issued) / float64(p.instrs)
			issued += p.issued
			useful += p.useful
		}
		if n == 0 {
			b.fail("no finished point ran scheme %s", s.name)
			continue
		}
		acc := 0.0
		if issued > 0 {
			acc = float64(useful) / float64(issued)
		}
		b.counts["sim."+s.slug+".ipc"] = metric{ipc / n, "instr/cycle"}
		b.counts["sim."+s.slug+".l1i_mpki"] = metric{l1i / n, "miss/kinstr"}
		b.counts["sim."+s.slug+".l2i_mpki"] = metric{l2i / n, "miss/kinstr"}
		b.counts["prefetch."+s.slug+".issued_pki"] = metric{pki / n, "pf/kinstr"}
		b.counts["prefetch."+s.slug+".accuracy"] = metric{acc, "useful/issued"}
	}
}
