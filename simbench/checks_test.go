package main

import (
	"context"
	"io"
	"testing"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Each check passes on real simulator output and fails once that
// output is corrupted.

const testWarm, testMeasure, testSeed = 2_000, 6_000, 11

func testRun(t *testing.T, w string, n int, s scheme) sim.Result {
	t.Helper()
	res, err := sim.NewEngine(testWarm, testMeasure, testSeed).Run(sim.RunSpec{
		Workload: liveWorkload(w), Cores: n, Scheme: s.name, Bypass: s.bypass})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// clone deep-copies a result so corruption cannot leak between cases.
func clone(r sim.Result) sim.Result {
	r.PerCore = append(r.PerCore[:0:0], r.PerCore...)
	r.Total.Components = append(r.Total.Components[:0:0], r.Total.Components...)
	return r
}

func TestCheckResult(t *testing.T) {
	hybrid := testRun(t, "DB", cores, schemes[5])
	if err := checkResult("hybrid", hybrid); err != nil {
		t.Fatalf("real result fails: %v", err)
	}
	if len(hybrid.Total.Components) == 0 {
		t.Fatal("hybrid point reports no components")
	}
	corrupt := map[string]func(r *sim.Result){
		"misses > accesses": func(r *sim.Result) { r.Total.L1I.Misses = r.Total.L1I.Accesses + 1 },
		"useful > issued":   func(r *sim.Result) { r.Total.Prefetch.Useful = r.Total.Prefetch.Issued + 1 },
		"categories":        func(r *sim.Result) { r.Total.L1IMissBreakdown.ByCategory[0]++ },
		"components":        func(r *sim.Result) { r.Total.Components[0].Issued++ },
		"core sum":          func(r *sim.Result) { r.PerCore[1].Instructions++ },
		"core count":        func(r *sim.Result) { r.PerCore = r.PerCore[:2] },
		"no cycles":         func(r *sim.Result) { r.Total.Cycles = 0 },
	}
	for name, fn := range corrupt {
		r := clone(hybrid)
		fn(&r)
		if checkResult("hybrid", r) == nil {
			t.Errorf("%s: corrupted result passes", name)
		}
	}
}

func TestCheckSameResult(t *testing.T) {
	a := testRun(t, "Web", cores, schemes[2])
	if err := checkSameResult("repeat", a, testRun(t, "Web", cores, schemes[2])); err != nil {
		t.Fatalf("identical runs differ: %v", err)
	}
	b := clone(a)
	b.PerCore[3].L2I.Misses++
	if checkSameResult("repeat", a, b) == nil {
		t.Error("a changed core statistic passes")
	}
	b = clone(a)
	b.OffChipTransfers++
	if checkSameResult("repeat", a, b) == nil {
		t.Error("a changed off-chip count passes")
	}
}

func TestCheckSchemesBeatNone(t *testing.T) {
	var points []point
	var results []sim.Result
	for _, w := range paperWorkloads {
		for _, s := range schemes[:3] {
			points = append(points, point{workload: w, scheme: s})
			r := sim.Result{}
			r.Total.Instructions = 1000
			r.Total.L1I.Misses = map[string]uint64{"none": 20, "n4l-tagged": 9, "discontinuity": 6}[s.slug]
			results = append(results, r)
		}
	}
	if err := checkSchemesBeatNone(points, results); err != nil {
		t.Fatalf("prefetching that helps fails: %v", err)
	}
	results[len(results)-1].Total.L1I.Misses = 20 // Mixed discontinuity ties none
	if checkSchemesBeatNone(points, results) == nil {
		t.Error("a discontinuity point missing as often as no prefetching passes")
	}
}

func TestCheckCounters(t *testing.T) {
	if err := checkCounters("p", 19, 0, 19); err != nil {
		t.Fatal(err)
	}
	if checkCounters("p", 19, 1, 19) == nil || checkCounters("p", 18, 0, 19) == nil {
		t.Error("a memo hit or a missing simulation passes")
	}
}

func TestCheckSameTraces(t *testing.T) {
	first := map[string]sim.Workload{}
	for _, w := range pointWorkloads {
		first[w] = sim.Workload{Apps: []string{"trace:a" + w, "trace:b" + w}}
	}
	last := map[string]sim.Workload{}
	for w, tw := range first {
		last[w] = sim.Workload{Apps: append([]string(nil), tw.Apps...)}
	}
	if err := checkSameTraces(first, last); err != nil {
		t.Fatal(err)
	}
	last["Web"].Apps[1] = "trace:other"
	if checkSameTraces(first, last) == nil {
		t.Error("a changed trace id passes")
	}
}

// recordedDB records the single-core DB stream of the test seed.
func recordedDB(t *testing.T) []isa.Block {
	t.Helper()
	srcs, err := cmp.SourcesFor([]string{"DB"}, 1, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := recordStream(srcs[0], "DB", 0, testWarm+testMeasure+replayMargin)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := readBlocks(data)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func TestCheckLRU(t *testing.T) {
	res := testRun(t, "DB", 1, schemes[0])
	blocks := recordedDB(t)
	if err := checkLRU(blocks, testWarm, testMeasure, res); err != nil {
		t.Fatalf("no-prefetch point disagrees with the LRU model: %v", err)
	}
	bad := clone(res)
	bad.Total.L1I.Misses--
	if checkLRU(blocks, testWarm, testMeasure, bad) == nil {
		t.Error("a miss count one short passes")
	}
	bad = clone(res)
	bad.Total.L1I.Accesses++
	if checkLRU(blocks, testWarm, testMeasure, bad) == nil {
		t.Error("an extra access passes")
	}
	if checkLRU(blocks[:100], testWarm, testMeasure, res) == nil {
		t.Error("a stream too short for the window passes")
	}
}

// TestLRUModelMatchesCache drives the reference model and the
// simulator's cache with the same demand lines.
func TestLRUModelMatchesCache(t *testing.T) {
	m := newLRUModel(32<<10, 4, 64)
	c := cache.New(cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64})
	for i, f := range demandFetches(recordedDB(t), 64) {
		hit, _ := c.Access(f.line)
		if !hit {
			c.Insert(f.line, cache.Flags{Inst: true, Used: true})
		}
		if got := m.access(f.line); got != hit {
			t.Fatalf("fetch %d (line %#x): model hit=%v, cache hit=%v", i, uint64(f.line), got, hit)
		}
	}
}

// testSweep runs a short daemon-sweep grid through the sweep runner and
// returns its artifact rows and journal entries by point.
func testSweep(t *testing.T, fork bool) (sweep.Spec, []sweep.Row, map[gridKey]sweep.PointResult) {
	t.Helper()
	b, err := newBench(options{short: true, out: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer b.cleanup()
	spec := b.sweepSpec(fork, testSeed)
	out, err := (&sweep.Runner{Engine: sim.NewEngine(spec.WarmInstrs, spec.MeasureInstrs, spec.Seed), Workers: 1}).
		Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	journal := map[gridKey]sweep.PointResult{}
	for _, p := range out.Points {
		journal[keyOf(p.Point)] = p
	}
	return spec, out.Artifact().Points, journal
}

func TestCheckGrid(t *testing.T) {
	spec, rows, _ := testSweep(t, false)
	want := expectedGrid(spec)
	if err := checkGrid("cold", rows, want); err != nil {
		t.Fatal(err)
	}
	if checkGrid("cold", append(rows, rows[3]), want) == nil {
		t.Error("a duplicated point passes")
	}
	if checkGrid("cold", rows[1:], want) == nil {
		t.Error("a missing point passes")
	}
	extra := append([]sweep.Row(nil), rows...)
	extra[2].PrefetchAhead = 99
	if checkGrid("cold", extra, want) == nil {
		t.Error("an unexpected point passes")
	}
}

func TestCheckRows(t *testing.T) {
	_, rows, journal := testSweep(t, true)
	if err := checkRows("fork", rows, journal); err != nil {
		t.Fatal(err)
	}
	hybrid := -1
	for i, r := range rows {
		if len(r.Components) > 0 {
			hybrid = i
		}
	}
	if hybrid < 0 {
		t.Fatal("no hybrid row")
	}
	corrupt := map[string]func(rows []sweep.Row, j map[gridKey]sweep.PointResult){
		"speedup": func(rows []sweep.Row, _ map[gridKey]sweep.PointResult) { rows[4].Speedup *= 1.01 },
		"journal cycles": func(rows []sweep.Row, j map[gridKey]sweep.PointResult) {
			k := keyOf(rows[4].Point)
			p := j[k]
			p.Cycles++
			j[k] = p
		},
		"useful > issued": func(rows []sweep.Row, _ map[gridKey]sweep.PointResult) {
			rows[hybrid].PrefetchUseful = rows[hybrid].PrefetchIssued + 1
		},
		"components": func(rows []sweep.Row, _ map[gridKey]sweep.PointResult) {
			cs := append([]sweep.ComponentSummary(nil), rows[hybrid].Components...)
			cs[0].Issued++
			rows[hybrid].Components = cs
		},
		"row vs journal": func(rows []sweep.Row, _ map[gridKey]sweep.PointResult) { rows[2].L1IMissPerInstr += 1e-3 },
		"missing entry":  func(rows []sweep.Row, j map[gridKey]sweep.PointResult) { delete(j, keyOf(rows[1].Point)) },
	}
	for name, fn := range corrupt {
		r := append([]sweep.Row(nil), rows...)
		j := map[gridKey]sweep.PointResult{}
		for k, v := range journal {
			j[k] = v
		}
		fn(r, j)
		if checkRows("fork", r, j) == nil {
			t.Errorf("%s: corrupted sweep passes", name)
		}
	}
}

func TestCheckSolo(t *testing.T) {
	spec, rows, journal := testSweep(t, true)
	row := rows[5]
	rs, err := row.Point.RunSpec()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := sim.NewEngine(spec.WarmInstrs, spec.MeasureInstrs, spec.Seed).Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	jp := journal[keyOf(row.Point)]
	if err := checkSolo("fork", jp, solo); err != nil {
		t.Fatal(err)
	}
	jp.Cycles++
	if checkSolo("fork", jp, solo) == nil {
		t.Error("a sweep point one cycle off its solo run passes")
	}
	// A cold run of the same point is a different methodology.
	rs.ForkWarm = false
	cold, err := sim.NewEngine(spec.WarmInstrs, spec.MeasureInstrs, spec.Seed).Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	if checkSolo("fork", journal[keyOf(row.Point)], cold) == nil {
		t.Error("a cold run passes as the fork point's solo run")
	}
}
