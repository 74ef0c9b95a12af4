package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/cmp"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// checkStats applies the properties every measured core or machine
// total must have.
func checkStats(name string, cs *stats.CoreStats) error {
	var errs []error
	caches := []struct {
		level string
		c     stats.CacheStats
	}{{"L1-I", cs.L1I}, {"L1-D", cs.L1D}, {"L2-I", cs.L2I}, {"L2-D", cs.L2D}}
	for _, c := range caches {
		if c.c.Misses > c.c.Accesses {
			errs = append(errs, fmt.Errorf("%s: %s misses %d > accesses %d", name, c.level, c.c.Misses, c.c.Accesses))
		}
	}
	if cs.Prefetch.Useful > cs.Prefetch.Issued {
		errs = append(errs, fmt.Errorf("%s: useful prefetches %d > issued %d", name, cs.Prefetch.Useful, cs.Prefetch.Issued))
	}
	if got := cs.L1IMissBreakdown.Total(); got != cs.L1I.Misses {
		errs = append(errs, fmt.Errorf("%s: L1-I miss categories sum to %d, misses %d", name, got, cs.L1I.Misses))
	}
	if cs.Instructions == 0 || cs.Cycles == 0 {
		errs = append(errs, fmt.Errorf("%s: %d instructions in %d cycles", name, cs.Instructions, cs.Cycles))
	}
	if len(cs.Components) > 0 {
		var issued, useful uint64
		for _, c := range cs.Components {
			issued += c.Issued
			useful += c.Useful
		}
		if issued != cs.Prefetch.Issued || useful != cs.Prefetch.Useful {
			errs = append(errs, fmt.Errorf("%s: components sum to %d issued / %d useful, front end counted %d / %d",
				name, issued, useful, cs.Prefetch.Issued, cs.Prefetch.Useful))
		}
	}
	return errors.Join(errs...)
}

// checkResult checks a point's total and every core, and that the
// cores add up to the total.
func checkResult(name string, res sim.Result) error {
	errs := []error{checkStats(name, &res.Total)}
	var sum stats.CoreStats
	for i := range res.PerCore {
		errs = append(errs, checkStats(fmt.Sprintf("%s core %d", name, i), &res.PerCore[i]))
		sum.Merge(&res.PerCore[i])
	}
	if len(res.PerCore) != res.Spec.Cores {
		errs = append(errs, fmt.Errorf("%s: %d core records for %d cores", name, len(res.PerCore), res.Spec.Cores))
	} else if !reflect.DeepEqual(sum, res.Total) {
		errs = append(errs, fmt.Errorf("%s: per-core statistics do not add up to the total", name))
	}
	return errors.Join(errs...)
}

// checkSameResult requires two runs of one simulation to agree on
// every statistic (their specs may name the workload differently).
func checkSameResult(name string, want, got sim.Result) error {
	if !reflect.DeepEqual(want.Total, got.Total) || !reflect.DeepEqual(want.PerCore, got.PerCore) ||
		want.OffChipTransfers != got.OffChipTransfers || want.L2InstrOccupancy != got.L2InstrOccupancy {
		return fmt.Errorf("%s: statistics differ: IPC %.6f vs %.6f, L1-I misses %d vs %d",
			name, want.Total.IPC(), got.Total.IPC(), want.Total.L1I.Misses, got.Total.L1I.Misses)
	}
	return nil
}

// checkSchemesBeatNone requires the discontinuity and next-4-line
// schemes to miss L1-I less often than no prefetching on every paper
// workload, as in the paper's Figures 5-8.
func checkSchemesBeatNone(points []point, results []sim.Result) error {
	rate := func(w, slug string) (float64, bool) {
		for i, p := range points {
			if p.workload == w && p.scheme.slug == slug {
				t := results[i].Total
				return t.L1I.PerInstr(t.Instructions), t.Instructions > 0
			}
		}
		return 0, false
	}
	var errs []error
	for _, w := range paperWorkloads {
		none, ok := rate(w, "none")
		if !ok {
			continue
		}
		for _, slug := range []string{"discontinuity", "n4l-tagged"} {
			if r, ok := rate(w, slug); ok && !(r < none) {
				errs = append(errs, fmt.Errorf("%s: %s misses L1-I %.3f/kinstr, no prefetching %.3f", w, slug, 1e3*r, 1e3*none))
			}
		}
	}
	return errors.Join(errs...)
}

// checkCounters requires an engine to have run exactly the wanted
// simulations and to have answered nothing from its memo.
func checkCounters(name string, sims, memoHits, wantSims uint64) error {
	if sims != wantSims || memoHits != 0 {
		return fmt.Errorf("%s: engine ran %d simulations with %d memo hits, want %d and 0", name, sims, memoHits, wantSims)
	}
	return nil
}

// checkSameTraces requires two recordings of the point workloads to
// name the same traces: ids are content hashes, so equal streams must
// get equal ids.
func checkSameTraces(first, last map[string]sim.Workload) error {
	var errs []error
	for _, w := range pointWorkloads {
		if !reflect.DeepEqual(first[w].Apps, last[w].Apps) {
			errs = append(errs, fmt.Errorf("%s: trace ids differ between set-up repetitions: %v vs %v", w, first[w].Apps, last[w].Apps))
		}
	}
	return errors.Join(errs...)
}

// lruModel is an LRU set-associative cache written apart from
// internal/cache: each set lists its lines most recent first.
type lruModel struct {
	sets  [][]isa.Line
	assoc int
}

func newLRUModel(sizeBytes, assoc, lineBytes int) *lruModel {
	n := sizeBytes / (assoc * lineBytes)
	return &lruModel{sets: make([][]isa.Line, n), assoc: assoc}
}

// access touches line l and reports whether it hit.
func (m *lruModel) access(l isa.Line) bool {
	set := m.sets[uint64(l)%uint64(len(m.sets))]
	for i, x := range set {
		if x == l {
			copy(set[1:i+1], set[:i])
			set[0] = l
			return true
		}
	}
	if len(set) < m.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = l
	m.sets[uint64(l)%uint64(len(m.sets))] = set
	return false
}

// fetch is one demand line fetch of a block stream, as a core makes it.
type fetch struct {
	line isa.Line
	cat  isa.MissCategory
	// disc marks the first line of a block entered by a taken
	// control transfer from another line; from is the line left.
	disc bool
	from isa.Line
}

// demandFetches derives the demand fetch sequence of a block stream
// the way a core fetches it: each block fetches the lines it spans,
// except a first line equal to the line fetched last.
func demandFetches(blocks []isa.Block, lineBytes int) []fetch {
	var out []fetch
	var last, prevEnd isa.Line
	haveLast, started := false, false
	var prevCTI isa.CTIKind
	for i := range blocks {
		blk := &blocks[i]
		first, lastLine := blk.Lines(lineBytes)
		for l := first; l <= lastLine; l++ {
			if haveLast && l == last {
				continue
			}
			f := fetch{line: l, cat: isa.MissSequential}
			if l == first {
				f.cat = isa.CategoryOf(prevCTI)
				f.disc = started && prevCTI.ChangesFlow() && prevEnd != first
				f.from = prevEnd
			}
			out = append(out, f)
			last, haveLast = l, true
		}
		prevCTI = blk.CTI
		prevEnd = isa.LineOf(blk.End()-1, lineBytes)
		started = true
	}
	return out
}

// lruReference feeds a block stream through the LRU model with a
// single core's warm-up/measurement windows: warm-up runs until warm
// instructions retire, then statistics count until measure more do.
func lruReference(blocks []isa.Block, warm, measure uint64) (accesses, misses, instrs uint64, err error) {
	m := newLRUModel(32<<10, 4, 64)
	var last isa.Line
	haveLast := false
	measuring := false
	var n uint64
	for i := range blocks {
		blk := &blocks[i]
		first, lastLine := blk.Lines(64)
		for l := first; l <= lastLine; l++ {
			if haveLast && l == last {
				continue
			}
			hit := m.access(l)
			if measuring {
				accesses++
				if !hit {
					misses++
				}
			}
			last, haveLast = l, true
		}
		n += uint64(blk.NumInstrs)
		if !measuring && n >= warm {
			measuring, n = true, 0
		} else if measuring && n >= measure {
			return accesses, misses, n, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("LRU reference: stream of %d blocks ends before %d+%d instructions", len(blocks), warm, measure)
}

// checkLRU compares a single-core no-prefetch point against the LRU
// model over the same recorded stream.
func checkLRU(blocks []isa.Block, warm, measure uint64, res sim.Result) error {
	acc, miss, instrs, err := lruReference(blocks, warm, measure)
	if err != nil {
		return err
	}
	t := res.Total
	if acc != t.L1I.Accesses || miss != t.L1I.Misses || instrs != t.Instructions {
		return fmt.Errorf("LRU reference: %d accesses, %d misses over %d instructions; simulator %d, %d over %d",
			acc, miss, instrs, t.L1I.Accesses, t.L1I.Misses, t.Instructions)
	}
	return nil
}

// readBlocks decodes a recorded container.
func readBlocks(data []byte) ([]isa.Block, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out []isa.Block
	for {
		var blk isa.Block
		err := r.Read(&blk)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		blk.MemOps = append([]isa.MemOp(nil), blk.MemOps...)
		out = append(out, blk)
	}
}

// checkLRUReference runs the single-core DB no-prefetch point and the
// LRU model over a recorded copy of the same generator stream.
func (b *bench) checkLRUReference(ctx context.Context) error {
	spec := sim.RunSpec{Workload: liveWorkload("DB"), Cores: 1, Scheme: "none"}
	res, err := sim.NewEngine(b.b.warm, b.b.measure, b.simSeed).RunContext(ctx, spec)
	if err != nil {
		return err
	}
	srcs, err := cmp.SourcesFor(spec.Workload.Apps, 1, b.simSeed)
	if err != nil {
		return err
	}
	data, err := recordStream(srcs[0], "DB", 0, b.b.warm+b.b.measure+replayMargin)
	if err != nil {
		return err
	}
	blocks, err := readBlocks(data)
	if err != nil {
		return err
	}
	b.check(checkLRU(blocks, b.b.warm, b.b.measure, res))
	return nil
}

// gridKey identifies a sweep point apart from its grid index.
type gridKey struct {
	scheme       string
	bypass       bool
	table, ahead int
}

// expectedGrid lists the points a daemon sweep spec must produce,
// enumerated here apart from sweep.Spec.Expand: the table and
// prefetch-ahead axes apply to discontinuity only, every scheme runs
// with the default L2 bypass, and the group's no-prefetch baseline
// runs without it.
func expectedGrid(spec sweep.Spec) []gridKey {
	var out []gridKey
	for _, s := range spec.Schemes {
		if s == "discontinuity" {
			for _, t := range spec.TableEntries {
				for _, a := range spec.PrefetchAhead {
					out = append(out, gridKey{s, true, t, a})
				}
			}
			continue
		}
		out = append(out, gridKey{s, true, 0, 0})
	}
	return append(out, gridKey{"none", false, 0, 0})
}

// checkGrid requires every expected point exactly once and nothing
// else.
func checkGrid(name string, rows []sweep.Row, want []gridKey) error {
	count := make(map[gridKey]int)
	for _, r := range rows {
		count[keyOf(r.Point)]++
	}
	var errs []error
	for _, k := range want {
		if count[k] != 1 {
			errs = append(errs, fmt.Errorf("%s: point %+v appears %d times", name, k, count[k]))
		}
		delete(count, k)
	}
	for k, n := range count {
		errs = append(errs, fmt.Errorf("%s: unexpected point %+v (%d times)", name, k, n))
	}
	return errors.Join(errs...)
}

// checkRows checks each artifact row against its journal entry
// (found by point) and the speedups against the baseline row:
// speedup must be the point's IPC over the baseline's, and match the
// ratio of instructions per cycle recomputed from the journal.
func checkRows(name string, rows []sweep.Row, journal map[gridKey]sweep.PointResult) error {
	var errs []error
	var base *sweep.Row
	for i := range rows {
		if rows[i].Baseline {
			base = &rows[i]
		}
	}
	if base == nil {
		return fmt.Errorf("%s: no baseline row", name)
	}
	jb, ok := journal[keyOf(base.Point)]
	if !ok {
		return fmt.Errorf("%s: baseline missing from the journal", name)
	}
	for _, r := range rows {
		k := keyOf(r.Point)
		jp, ok := journal[k]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: point %+v missing from the journal", name, k))
			continue
		}
		if r.PrefetchUseful > r.PrefetchIssued {
			errs = append(errs, fmt.Errorf("%s: %+v: useful %d > issued %d", name, k, r.PrefetchUseful, r.PrefetchIssued))
		}
		if r.PrefetchIssued > 0 && r.PrefetchAccuracy != float64(r.PrefetchUseful)/float64(r.PrefetchIssued) {
			errs = append(errs, fmt.Errorf("%s: %+v: accuracy %v is not useful/issued", name, k, r.PrefetchAccuracy))
		}
		if len(r.Components) > 0 {
			var issued, useful uint64
			for _, c := range r.Components {
				issued += c.Issued
				useful += c.Useful
			}
			if issued != r.PrefetchIssued || useful != r.PrefetchUseful {
				errs = append(errs, fmt.Errorf("%s: %+v: components sum to %d/%d, point %d/%d",
					name, k, issued, useful, r.PrefetchIssued, r.PrefetchUseful))
			}
		}
		if jp.Cycles == 0 || jp.Instructions == 0 {
			errs = append(errs, fmt.Errorf("%s: %+v: journal has %d instructions in %d cycles", name, k, jp.Instructions, jp.Cycles))
			continue
		}
		if r.IPC != jp.IPC || r.PrefetchIssued != jp.PrefetchIssued || r.PrefetchUseful != jp.PrefetchUseful ||
			r.L1IMissPerInstr != jp.L1IMissPerInstr || r.L2IMissPerInstr != jp.L2IMissPerInstr {
			errs = append(errs, fmt.Errorf("%s: %+v: artifact row disagrees with its journal entry", name, k))
		}
		if want := r.IPC / base.IPC; r.Speedup != want {
			errs = append(errs, fmt.Errorf("%s: %+v: speedup %v, IPC ratio to baseline %v", name, k, r.Speedup, want))
		}
		ipc := func(p sweep.PointResult) float64 { return float64(p.Instructions) / float64(p.Cycles) }
		if want := ipc(jp) / ipc(jb); math.Abs(r.Speedup-want) > 1e-9*want {
			errs = append(errs, fmt.Errorf("%s: %+v: speedup %v, journal cycles give %v", name, k, r.Speedup, want))
		}
	}
	return errors.Join(errs...)
}

// keyOf identifies a grid point by its axes.
func keyOf(p sweep.Point) gridKey {
	return gridKey{p.Scheme, p.Bypass, p.TableEntries, p.PrefetchAhead}
}

// checkSolo compares a sweep's journal entry with a solo run of the
// same spec on a fresh engine.
func checkSolo(name string, jp sweep.PointResult, solo sim.Result) error {
	t := solo.Total
	if jp.IPC != t.IPC() || jp.Instructions != t.Instructions || jp.Cycles != t.Cycles ||
		jp.L1IMissPerInstr != t.L1I.PerInstr(t.Instructions) || jp.L2IMissPerInstr != t.L2I.PerInstr(t.Instructions) ||
		jp.PrefetchIssued != t.Prefetch.Issued || jp.PrefetchUseful != t.Prefetch.Useful ||
		jp.OffChipTransfers != solo.OffChipTransfers {
		return fmt.Errorf("%s: sweep point (IPC %.6f, %d cycles) differs from its solo run (IPC %.6f, %d cycles)",
			name, jp.IPC, jp.Cycles, t.IPC(), t.Cycles)
	}
	return nil
}
