package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// Runner executes sweeps: it expands a Spec, replays already
// checkpointed points from the Journal, and runs the remaining points
// through RunPoints (whose engine memoisation and in-flight dedup are
// shared with any other traffic on the same engine, e.g. the service
// job queue).
type Runner struct {
	// Engine executes the points; its budgets (WarmInstrs,
	// MeasureInstrs, Seed) are part of every point's identity.
	// Required.
	Engine *sim.Engine
	// Workers bounds concurrent simulations. Default: GOMAXPROCS.
	Workers int
	// Journal, when non-nil, checkpoints completed points and replays
	// them on resume.
	Journal *Journal
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// OnPoint, when non-nil, is called (serialised) after every point
	// resolves — recovered from the journal or freshly simulated.
	// Progress trackers and tests hook here.
	OnPoint func(PointResult)
}

// Outcome is a completed sweep: every point's result in grid order,
// plus how the work split between recovery and simulation.
type Outcome struct {
	Spec   Spec          `json:"spec"`
	Points []PointResult `json:"points"`
	// Recovered counts points replayed from the journal; Simulated
	// counts points this run actually executed (including engine memo
	// hits, which are still resolved through RunContext).
	Recovered int `json:"recovered"`
	Simulated int `json:"simulated"`
}

// Run executes the sweep to completion under ctx. On cancellation it
// returns ctx's error; every point that finished before the
// interruption is already checkpointed, so a later Run with the same
// spec, budgets and journal resumes with zero recomputed points.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Outcome, error) {
	if r.Engine == nil {
		return nil, fmt.Errorf("sweep: runner needs an engine")
	}
	warm, measure, seed := r.Engine.WarmInstrs, r.Engine.MeasureInstrs, r.Engine.Seed
	if spec.WarmInstrs != 0 && spec.WarmInstrs != warm ||
		spec.MeasureInstrs != 0 && spec.MeasureInstrs != measure ||
		spec.Seed != 0 && spec.Seed != seed {
		return nil, fmt.Errorf("sweep: spec budgets (warm=%d measure=%d seed=%d) disagree with engine (warm=%d measure=%d seed=%d)",
			spec.WarmInstrs, spec.MeasureInstrs, spec.Seed, warm, measure, seed)
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}

	out := &Outcome{Spec: spec, Points: make([]PointResult, len(points))}
	var mu sync.Mutex // guards out counters and OnPoint serialisation
	resolve := func(res PointResult) {
		mu.Lock()
		out.Points[res.Point.Index] = res
		if res.Recovered {
			out.Recovered++
		} else {
			out.Simulated++
		}
		cb := r.OnPoint
		if cb != nil {
			cb(res)
		}
		mu.Unlock()
	}

	// Pass 1: replay checkpoints, collect the points still to run.
	var todo []Point
	for _, p := range points {
		key, err := p.Key(warm, measure, seed)
		if err != nil {
			return nil, err
		}
		if r.Journal != nil {
			if res, ok := r.Journal.Get(key); ok {
				res.Point = p // grid indices may differ across spec edits
				resolve(res)
				continue
			}
		}
		todo = append(todo, p)
	}
	r.logf("sweep %s: %d points (%d checkpointed, %d to run)",
		spec.ID(warm, measure, seed), len(points), out.Recovered, len(todo))

	// Pass 2: run the remainder, checkpointing each point as it lands
	// so an interrupted run resumes from every point that finished.
	err = RunPoints(ctx, r.Engine, todo, sim.NewSlots(r.Workers), func(res PointResult) error {
		if r.Journal != nil {
			if err := r.Journal.Put(res); err != nil {
				// A failed checkpoint costs recomputation on resume,
				// not correctness; log and continue.
				r.logf("sweep: checkpoint point %d: %v", res.Point.Index, err)
			}
		}
		resolve(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunPoints simulates points on eng through Engine.RunBatchSlots, each
// warm phase and measurement holding one of slots, so fork-warm points
// sharing a warm phase fork from one snapshot and the rest run solo. Each point's key
// and RunSpec derive from the engine's budgets. onResult receives every
// completed point and may be called concurrently. RunPoints returns the
// first simulation error, else the first onResult error; points already
// delivered stand.
func RunPoints(ctx context.Context, eng *sim.Engine, points []Point, slots sim.Slots, onResult func(PointResult) error) error {
	specs := make([]sim.RunSpec, len(points))
	keys := make([]string, len(points))
	for i, p := range points {
		key, err := p.Key(eng.WarmInstrs, eng.MeasureInstrs, eng.Seed)
		if err != nil {
			return err
		}
		rs, err := p.RunSpec()
		if err != nil {
			return err
		}
		keys[i], specs[i] = key, rs
	}
	var mu sync.Mutex
	var cbErr error
	err := eng.RunBatchSlots(ctx, specs, slots, func(i int, simRes sim.Result, err error, elapsed time.Duration) {
		if err != nil {
			return // RunBatchSlots returns the first error itself
		}
		if err := onResult(NewPointResult(points[i], keys[i], simRes, elapsed)); err != nil {
			mu.Lock()
			if cbErr == nil {
				cbErr = err
			}
			mu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	return cbErr
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}
