package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cmp"
	"repro/internal/corpus"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// point is one simulation of the cmp-cold and trace-replay lists.
type point struct {
	// workload is the paper workload the point simulates (replayed or
	// generated).
	workload string
	scheme   scheme
	spec     sim.RunSpec
}

// pointList crosses the point workloads with the schemes. sources
// names each workload's per-core applications (the workload's own
// apps for generated points, trace:<id> names for replayed ones).
func pointList(sources func(w string) sim.Workload) []point {
	var out []point
	for _, w := range pointWorkloads {
		for _, s := range schemes {
			out = append(out, point{workload: w, scheme: s, spec: sim.RunSpec{
				Workload: sources(w), Cores: cores, Scheme: s.name, Bypass: s.bypass}})
		}
	}
	return out
}

// liveWorkload resolves a workload to its generators.
func liveWorkload(w string) sim.Workload {
	wl, _ := sim.WorkloadByName(w, true)
	return wl
}

// runPoints times every point once per round on a fresh engine, so
// nothing is memoised, and returns each round's results in list order.
func (b *bench) runPoints(ctx context.Context, points []point) ([][]sim.Result, error) {
	var rounds [][]sim.Result
	var sims, memo uint64
	_, err := b.rounds(ctx, func(r int) error {
		results := make([]sim.Result, len(points))
		for i, p := range points {
			err := b.op(p.workload+"/"+p.scheme.slug, func(op, span int) (float64, error) {
				eng := sim.NewEngine(b.b.warm, b.b.measure, b.simSeed)
				h := b.tr.begin("sim.Engine.RunContext", span, op)
				res, err := eng.RunContext(ctx, p.spec)
				b.tr.end(h, 0)
				if err != nil {
					return 0, err
				}
				c := eng.Counters()
				if r == 0 {
					sims += c.Simulations
					memo += c.MemoHits
				}
				b.check(checkCounters(p.workload+"/"+p.scheme.slug, c.Simulations, c.MemoHits, 1))
				results[i] = res
				return float64(res.Total.Instructions) + float64(cores*b.b.warm), nil
			})
			if err != nil && ctx.Err() != nil {
				return err
			}
		}
		rounds = append(rounds, results)
		return nil
	})
	b.counts["sim.simulations"] = metric{float64(sims), "count"}
	b.counts["sim.memo_hits"] = metric{float64(memo), "count"}
	return rounds, err
}

// checkPointRounds applies the point checks to every round's results.
func (b *bench) checkPointRounds(points []point, rounds [][]sim.Result) {
	for r, results := range rounds {
		for i, p := range points {
			if b.ops[r*len(points)+i].failed {
				continue
			}
			b.check(checkResult(p.workload+"/"+p.scheme.slug, results[i]))
			if r > 0 {
				b.check(checkSameResult(p.workload+"/"+p.scheme.slug, rounds[0][i], results[i]))
			}
		}
	}
	if len(rounds) == 0 {
		return
	}
	b.check(checkSchemesBeatNone(points, rounds[0]))
	var ps []pointStats
	for i, p := range points {
		ps = append(ps, statsOfResult(p.scheme.slug, rounds[0][i]))
	}
	b.addSchemeStats(ps)
}

// runCMPCold is the cmp-cold workload: the per-instruction path of
// generated points does nearly all the work.
func runCMPCold(ctx context.Context, b *bench) error {
	if err := b.timeSetup(b.b.setupReps, func(rep int, _ bool) error {
		return b.buildImages(rep, pointWorkloads)
	}); err != nil {
		return err
	}
	points := pointList(liveWorkload)
	rounds, err := b.runPoints(ctx, points)
	if err != nil {
		return err
	}
	b.checkPointRounds(points, rounds)
	return b.checkLRUReference(ctx)
}

// recordStream draws blocks from src until at least instrs
// instructions are recorded and encodes them as an IPFTRC02 container.
func recordStream(src workload.Source, name string, asid, instrs uint64) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf, name, asid, 0)
	if err != nil {
		return nil, err
	}
	var blk isa.Block
	for n := uint64(0); n < instrs; n += uint64(blk.NumInstrs) {
		src.Next(&blk)
		if err := w.Write(&blk); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replayMargin is recorded past each core's budget: a core stops at
// the first block that reaches its target, so it never reads further.
const replayMargin = 4096

// recordCorpus records every core stream of the point workloads into
// a fresh corpus store under dir and returns, per workload, the
// replayed workload naming one trace per core.
func (b *bench) recordCorpus(dir string, instrs uint64) (*corpus.Store, map[string]sim.Workload, error) {
	st, err := corpus.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]sim.Workload)
	for _, w := range pointWorkloads {
		live := liveWorkload(w)
		srcs, err := cmp.SourcesFor(live.Apps, cores, b.simSeed)
		if err != nil {
			return nil, nil, err
		}
		tw := sim.Workload{Name: "trace-" + w}
		for c, src := range srcs {
			app := live.Apps[c%len(live.Apps)]
			h := b.tr.begin("trace.WriterV2", -1, -1)
			data, err := recordStream(src, app, uint64(c), instrs)
			b.tr.end(h, 0)
			if err != nil {
				return nil, nil, err
			}
			h = b.tr.begin("corpus.Store.Put", -1, -1)
			man, err := st.Put(bytes.NewReader(data), "simbench")
			b.tr.end(h, 0)
			if err != nil {
				return nil, nil, err
			}
			tw.Apps = append(tw.Apps, cmp.TraceWorkloadPrefix+man.ID)
		}
		out[w] = tw
	}
	return st, out, nil
}

// runTraceReplay is the trace-replay workload: the points of cmp-cold
// replaying traces recorded from the same generators, so chunk decode
// replaces workload generation.
func runTraceReplay(ctx context.Context, b *bench) error {
	var traces, first map[string]sim.Workload
	var spare []string
	if err := b.timeSetup(b.b.traceSetupReps, func(rep int, last bool) error {
		if err := b.buildImages(rep, pointWorkloads); err != nil {
			return err
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("corpus-%d", rep))
		st, tw, err := b.recordCorpus(dir, b.b.warm+b.b.measure+replayMargin)
		if err != nil {
			return err
		}
		if first == nil {
			first = tw
		}
		if !last {
			spare = append(spare, dir)
			return nil
		}
		traces = tw
		cmp.RegisterTraceProvider(st.ReplaySource)
		return nil
	}); err != nil {
		return err
	}
	for _, dir := range spare {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.check(checkSameTraces(first, traces))
	points := pointList(func(w string) sim.Workload { return traces[w] })
	rounds, err := b.runPoints(ctx, points)
	if err != nil {
		return err
	}
	b.checkPointRounds(points, rounds)
	return b.checkReplayMatchesLive(ctx, traces["DB"], points, rounds)
}

// checkReplayMatchesLive re-runs replayed points on the generators the
// traces were recorded from: the statistics must be identical, on a
// single core and on the 4-core machine.
func (b *bench) checkReplayMatchesLive(ctx context.Context, db sim.Workload, points []point, rounds [][]sim.Result) error {
	if len(rounds) == 0 {
		return nil
	}
	// Single core: core 0's trace is the stream a 1-core machine
	// generates for the same seed.
	for _, s := range []scheme{schemes[0], schemes[2]} {
		spec := sim.RunSpec{Workload: liveWorkload("DB"), Cores: 1, Scheme: s.name, Bypass: s.bypass}
		live, err := sim.NewEngine(b.b.warm, b.b.measure, b.simSeed).RunContext(ctx, spec)
		if err != nil {
			return err
		}
		spec.Workload = sim.Workload{Name: "trace-DB-core0", Apps: db.Apps[:1]}
		replay, err := sim.NewEngine(b.b.warm, b.b.measure, b.simSeed).RunContext(ctx, spec)
		if err != nil {
			return err
		}
		b.check(checkSameResult("1-core DB/"+s.slug+" replay vs live", live, replay))
	}
	// 4 cores: the first point of the list against its generators.
	p := points[0]
	spec := p.spec
	spec.Workload = liveWorkload(p.workload)
	live, err := sim.NewEngine(b.b.warm, b.b.measure, b.simSeed).RunContext(ctx, spec)
	if err != nil {
		return err
	}
	b.check(checkSameResult(p.workload+"/"+p.scheme.slug+" replay vs live", live, rounds[0][0]))
	return nil
}
