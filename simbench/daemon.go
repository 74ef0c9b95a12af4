package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// daemon is an in-process iprefetchd: the service behind its HTTP
// handler on a loopback listener, and the benchmark's one client.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	dir    string
	client *http.Client
	served chan struct{}
}

// startDaemon starts a daemon on a fresh data directory. One worker
// runs the sweeps, one connection carries the client's requests.
func startDaemon(dir string, warm, measure, seed uint64) (*daemon, error) {
	svc, err := service.New(service.Config{
		Workers:              1,
		ResultDir:            dir,
		DefaultWarmInstrs:    warm,
		DefaultMeasureInstrs: measure,
		Seed:                 seed,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: service.Handler(svc)},
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	if err := d.do(context.Background(), http.MethodGet, "/healthz", nil, http.StatusOK, nil); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.svc.Shutdown(ctx)
}

// do sends one request, requires the given status, and decodes the
// JSON reply into out when out is non-nil.
func (d *daemon) do(ctx context.Context, method, path string, body []byte, status int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// sweepOp submits spec, waits for the sweep by re-submitting it with
// ?wait=1 (an identical spec attaches to the running sweep), and
// fetches its JSON artifact.
// Its spans are named prefix+"service.submit", "service.sweep" and
// "service.artifact".
func (d *daemon) sweepOp(ctx context.Context, tr *tracer, prefix string, op, parent int, spec sweep.Spec) (string, *sweep.Artifact, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	var v service.SweepView
	h := tr.begin(prefix+"service.submit", parent, op)
	err = d.do(ctx, http.MethodPost, "/v1/sweeps", body, http.StatusAccepted, &v)
	tr.end(h, 0)
	if err != nil {
		return "", nil, err
	}
	h = tr.begin(prefix+"service.sweep", parent, op)
	err = d.do(ctx, http.MethodPost, "/v1/sweeps?wait=1", body, http.StatusOK, &v)
	tr.end(h, 0)
	if err != nil {
		return "", nil, err
	}
	if v.State != service.SweepCompleted || v.Completed != v.Total {
		return "", nil, fmt.Errorf("sweep %s ended %s with %d/%d points: %s", v.ID, v.State, v.Completed, v.Total, v.Error)
	}
	var a sweep.Artifact
	h = tr.begin(prefix+"service.artifact", parent, op)
	err = d.do(ctx, http.MethodGet, "/v1/sweeps/"+v.ID+"/artifacts/results.json", nil, http.StatusOK, &a)
	tr.end(h, 0)
	if err != nil {
		return "", nil, err
	}
	return v.ID, &a, nil
}

// journal reads a sweep's checkpoint entries, keyed by grid point.
func (d *daemon) journal(id string) (map[gridKey]sweep.PointResult, error) {
	files, err := filepath.Glob(filepath.Join(d.dir, "sweeps", id, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[gridKey]sweep.PointResult)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r sweep.PointResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		k := keyOf(r.Point)
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("sweep %s: journal holds point %+v twice", id, k)
		}
		out[k] = r
	}
	return out, nil
}

// sweepSpec is one daemon sweep: a dense grid of discontinuity table
// sizes and prefetch-ahead distances plus the other schemes on one
// workload, fork-warm or cold, pinned to its own seed so no sweep is
// answered from a journal or memo.
func (b *bench) sweepSpec(fork bool, seed uint64) sweep.Spec {
	var names []string
	for _, s := range schemes {
		names = append(names, s.name)
	}
	return sweep.Spec{
		Name:          fmt.Sprintf("simbench-fork=%v", fork),
		Schemes:       names,
		Workloads:     []string{sweepWorkload},
		Cores:         []int{cores},
		TableEntries:  []int{512, 2048, 8192},
		PrefetchAhead: []int{1, 2, 4, 8},
		ForkWarm:      fork,
		WarmInstrs:    b.b.sweepWarm,
		MeasureInstrs: b.b.sweepMeasure,
		Seed:          seed,
	}
}

// sweepRun is one finished daemon sweep kept for the checks.
type sweepRun struct {
	round int
	spec  sweep.Spec
	id    string
	art   *sweep.Artifact
	sims  uint64
	memo  uint64
}

// runDaemonSweep is the daemon-sweep workload: per-point fixed costs
// (machine construction, snapshot and restore, journal writes, service
// bookkeeping, HTTP) dominate, and fork and cold grids drive the sweep
// executor two ways.
func runDaemonSweep(ctx context.Context, b *bench) error {
	var d *daemon
	var spare []*daemon
	if err := b.timeSetup(b.b.setupReps, func(rep int, last bool) error {
		if err := b.buildImages(rep, []string{sweepWorkload}); err != nil {
			return err
		}
		h := b.tr.begin("service.start", -1, -1)
		dd, err := startDaemon(filepath.Join(b.dir, fmt.Sprintf("daemon-%d", rep)),
			b.b.sweepWarm, b.b.sweepMeasure, b.simSeed)
		b.tr.end(h, 0)
		if err != nil {
			return err
		}
		if last {
			d = dd
		} else {
			spare = append(spare, dd)
		}
		return nil
	}); err != nil {
		for _, dd := range spare {
			dd.stop()
		}
		return err
	}
	for _, dd := range spare {
		dd.stop()
	}
	b.onCleanup(d.stop)

	var runs []sweepRun
	// A round is two fork sweeps and one cold sweep, each on its own
	// seed. The fork sweeps, whose per-point fixed costs dominate, are
	// two thirds of the operations, so op_ms is a fork-sweep time.
	_, err := b.rounds(ctx, func(r int) error {
		for k, fork := range []bool{true, true, false} {
			spec := b.sweepSpec(fork, mix(b.opts.seed, uint64(1+3*r+k)))
			before := d.svc.EngineCounters()
			var id string
			var art *sweep.Artifact
			name := "cold"
			if fork {
				name = "fork"
			}
			err := b.op(name, func(op, span int) (float64, error) {
				var err error
				id, art, err = d.sweepOp(ctx, b.tr, "", op, span, spec)
				return 0, err
			})
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				continue
			}
			after := d.svc.EngineCounters()
			runs = append(runs, sweepRun{round: r, spec: spec, id: id, art: art,
				sims: after.Simulations - before.Simulations, memo: after.MemoHits - before.MemoHits})
		}
		return nil
	})
	if err != nil {
		return err
	}
	return b.checkSweeps(ctx, d, runs)
}

// checkSweeps checks every finished sweep against its spec and journal
// and accounts its simulated instructions: each point's measured
// instructions plus its warm phase, which a fork grid shares.
func (b *bench) checkSweeps(ctx context.Context, d *daemon, runs []sweepRun) error {
	var sims, memo uint64
	for i, run := range runs {
		name := fmt.Sprintf("sweep %s (fork=%v)", run.id, run.spec.ForkWarm)
		journal, err := d.journal(run.id)
		if err != nil {
			b.fail("%s: %v", name, err)
			continue
		}
		want := expectedGrid(run.spec)
		b.check(checkGrid(name+" artifact", run.art.Points, want))
		b.check(checkRows(name, run.art.Points, journal))
		if len(journal) != len(want) {
			b.fail("%s: journal holds %d points, grid %d", name, len(journal), len(want))
		}
		wantSims := uint64(len(want))
		warms := float64(len(want))
		if run.spec.ForkWarm {
			// Points share a warm phase per L2 install policy: the
			// baseline runs without bypass, every other point with it.
			wantSims += 2
			warms = 2
		}
		b.check(checkCounters(name, run.sims, run.memo, wantSims))
		instrs := warms * float64(cores*run.spec.WarmInstrs)
		for _, jp := range journal {
			instrs += float64(jp.Instructions)
		}
		b.instrs += instrs
		if run.round == 0 {
			sims += run.sims
			memo += run.memo
			if i == 0 {
				var ps []pointStats
				for _, row := range run.art.Points {
					jp := journal[keyOf(row.Point)]
					ps = append(ps, pointStats{slug: slugOf(jp.Point.Scheme), ipc: jp.IPC,
						l1iRate: jp.L1IMissPerInstr, l2iRate: jp.L2IMissPerInstr, instrs: jp.Instructions,
						issued: jp.PrefetchIssued, useful: jp.PrefetchUseful})
				}
				b.addSchemeStats(ps)
			}
		}
		if run.spec.ForkWarm {
			if err := b.checkForkSolo(ctx, name, run, i, journal); err != nil {
				return err
			}
		}
	}
	b.counts["sim.simulations"] = metric{float64(sims), "count"}
	b.counts["sim.memo_hits"] = metric{float64(memo), "count"}
	return nil
}

// checkForkSolo re-runs one point of a fork sweep (a different one
// for each sweep) alone on a fresh engine: it must equal the sweep's.
func (b *bench) checkForkSolo(ctx context.Context, name string, run sweepRun, i int, journal map[gridKey]sweep.PointResult) error {
	rows := run.art.Points
	if len(rows) == 0 {
		return nil
	}
	row := rows[i%len(rows)]
	spec, err := row.Point.RunSpec()
	if err != nil {
		return err
	}
	solo, err := sim.NewEngine(run.spec.WarmInstrs, run.spec.MeasureInstrs, run.spec.Seed).RunContext(ctx, spec)
	if err != nil {
		return err
	}
	jp, ok := journal[keyOf(row.Point)]
	if !ok {
		return errors.New(name + ": solo point missing from the journal")
	}
	b.check(checkSolo(fmt.Sprintf("%s point %d", name, row.Index), jp, solo))
	return nil
}
