package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sliceSource replays blocks held in memory, wrapping at the end, so
// the layers above it are timed without generation or decode.
type sliceSource struct {
	blocks []isa.Block
	pos    int
}

func (s *sliceSource) Next(b *isa.Block) {
	src := &s.blocks[s.pos]
	s.pos++
	if s.pos == len(s.blocks) {
		s.pos = 0
	}
	b.PC, b.NumInstrs, b.CTI, b.Target = src.PC, src.NumInstrs, src.CTI, src.Target
	b.MemOps = append(b.MemOps[:0], src.MemOps...)
}

// drain copies n blocks out of src.
func drain(src workload.Source, n int) []isa.Block {
	out := make([]isa.Block, n)
	var blk isa.Block
	for i := range out {
		src.Next(&blk)
		out[i] = blk
		out[i].MemOps = append([]isa.MemOp(nil), blk.MemOps...)
	}
	return out
}

func instrsOf(blocks []isa.Block) uint64 {
	var n uint64
	for i := range blocks {
		n += uint64(blocks[i].NumInstrs)
	}
	return n
}

// layer times fn once per repetition inside a span called
// "layer."+name (apart from the workload's own spans); fn returns how
// many items (blocks, fetches, instructions, megabytes) the span
// covered. It returns the median time per item in nanoseconds and the
// median heap allocations per item.
func (b *bench) layer(name string, fn func() (float64, error)) (nsPerItem, allocsPerItem float64, err error) {
	name = "layer." + name
	var allocs []float64
	for rep := 0; rep < b.b.layerReps; rep++ {
		objs := heapAllocObjects()
		h := b.tr.begin(name, -1, -1)
		n, err := fn()
		b.tr.end(h, n)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		allocs = append(allocs, (heapAllocObjects()-objs)/n)
	}
	return median(b.tr.durations(name, true)), median(allocs), nil
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layers[name] = metric{v, unit}
}

// layerSuite measures each module from outside: one recorded block
// stream (DB, four cores) is replayed into progressively larger stacks
// built from public constructors, so the difference between steps is
// that layer's cost. It runs only in traced runs, after the workload.
func (b *bench) layerSuite(ctx context.Context) error {
	n := b.b.layerBlocks
	db := liveWorkload("DB")
	srcs, err := cmp.SourcesFor(db.Apps, cores, b.simSeed)
	if err != nil {
		return err
	}
	var streams [][]isa.Block
	for _, src := range srcs {
		streams = append(streams, drain(src, n))
	}
	stream := streams[0]
	fetches := demandFetches(stream, 64)
	instrs := instrsOf(stream)
	b.setLayer("stream.instrs_per_block", float64(instrs)/float64(n), "instr/block")
	b.setLayer("stream.fetches_per_kinstr", 1e3*float64(len(fetches))/float64(instrs), "fetch/kinstr")

	// Workload generation.
	ns, allocs, err := b.layer("workload.Generator.Next", func() (float64, error) {
		srcs, err := cmp.SourcesFor(db.Apps[:1], 1, b.simSeed)
		if err != nil {
			return 0, err
		}
		var blk isa.Block
		for i := 0; i < n; i++ {
			srcs[0].Next(&blk)
		}
		return float64(n), nil
	})
	if err != nil {
		return err
	}
	b.setLayer("workload.gen_ns_per_block", ns, "ns")
	b.setLayer("workload.gen_allocs_per_kblock", 1e3*allocs, "alloc/kblock")

	// Trace encode, corpus ingest, replay decode.
	var container []byte
	ns, _, err = b.layer("trace.WriterV2.Write", func() (float64, error) {
		var buf bytes.Buffer
		w, err := trace.NewWriterV2(&buf, "DB", 0, 0)
		if err != nil {
			return 0, err
		}
		for i := range stream {
			if err := w.Write(&stream[i]); err != nil {
				return 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		container = buf.Bytes()
		return float64(n), nil
	})
	if err != nil {
		return err
	}
	b.setLayer("trace.encode_ns_per_block", ns, "ns")
	var st *corpus.Store
	var id string
	rep := 0
	ns, _, err = b.layer("corpus.Store.Put", func() (float64, error) {
		rep++
		var err error
		if st, err = corpus.Open(filepath.Join(b.dir, fmt.Sprintf("layer-corpus-%d", rep))); err != nil {
			return 0, err
		}
		man, err := st.Put(bytes.NewReader(container), "simbench")
		id = man.ID
		return float64(len(container)) / 1e6, err
	})
	if err != nil {
		return err
	}
	b.setLayer("corpus.ingest_mb_per_s", 1e9/ns, "MB/s")
	// A first replay verifies and caches the chunks, as the first
	// trace-replay point does; the timed replays decode from the cache.
	warmSrc, err := st.ReplaySource(id)
	if err != nil {
		return err
	}
	drain(warmSrc, n)
	ns, _, err = b.layer("corpus.ReplaySource.Next", func() (float64, error) {
		src, err := st.ReplaySource(id)
		if err != nil {
			return 0, err
		}
		var blk isa.Block
		for i := 0; i < n; i++ {
			src.Next(&blk)
		}
		return float64(n), nil
	})
	if err != nil {
		return err
	}
	b.setLayer("trace.decode_ns_per_block", ns, "ns")

	// Prefetch schemes alone, fed the fetch events of a no-prefetch
	// L1-I (the LRU reference model gives the miss flags).
	lru := newLRUModel(32<<10, 4, 64)
	events := make([]prefetch.Event, len(fetches))
	for i, f := range fetches {
		events[i] = prefetch.Event{Line: f.line, Miss: !lru.access(f.line)}
	}
	cfg := cmp.DefaultConfig(1)
	for _, s := range schemes {
		ns, _, err := b.layer("prefetch."+s.slug+".OnFetch", func() (float64, error) {
			pf, err := prefetch.New(s.name)
			if err != nil {
				return 0, err
			}
			out := make([]isa.Line, 0, 64)
			for i, f := range fetches {
				out = pf.OnFetch(events[i], out[:0])
				if f.disc {
					pf.OnDiscontinuity(f.from, f.line, events[i].Miss)
				}
			}
			return float64(len(fetches)), nil
		})
		if err != nil {
			return err
		}
		b.setLayer("prefetch."+s.slug+".ns_per_fetch", ns, "ns")

		// The scheme inside a front end: queue, recent filter, L1-I,
		// shared L2 and off-chip port.
		ns, _, err = b.layer("core."+s.slug+".FetchLine", func() (float64, error) {
			pf, err := prefetch.New(s.name)
			if err != nil {
				return 0, err
			}
			fc := cfg.FrontEnd
			fc.BypassL2 = s.bypass
			fe := core.NewFrontEnd(fc, pf, core.NewMemSystem(cfg.Mem), &stats.CoreStats{})
			var now uint64
			for _, f := range fetches {
				avail, missed := fe.FetchLine(f.line, f.cat, now)
				if avail > now {
					now = avail
				}
				now += 2
				if f.disc {
					fe.NoteDiscontinuity(f.from, f.line, missed)
				}
			}
			return float64(len(fetches)), nil
		})
		if err != nil {
			return err
		}
		b.setLayer("core."+s.slug+".ns_per_fetch", ns, "ns")
	}

	// The L1-I alone on the demand line sequence.
	ns, _, err = b.layer("cache.Cache.Access", func() (float64, error) {
		c := cache.New(cfg.FrontEnd.L1I)
		for _, f := range fetches {
			if hit, _ := c.Access(f.line); !hit {
				c.Insert(f.line, cache.Flags{Inst: true, Used: true})
			}
		}
		return float64(len(fetches)), nil
	})
	if err != nil {
		return err
	}
	b.setLayer("cache.l1i_ns_per_access", ns, "ns")

	// One timed core, then the 4-core machine, both running the
	// discontinuity scheme with L2 bypass over in-memory streams.
	runFor := instrs * 9 / 10
	ns, allocs, err = b.layer("cpu.Core.Run", func() (float64, error) {
		cs := &stats.CoreStats{}
		fc := cfg.FrontEnd
		fc.BypassL2 = true
		fe := core.NewFrontEnd(fc, prefetch.MustNew("discontinuity"), core.NewMemSystem(cfg.Mem), cs)
		c := cpu.New(cfg.Core, fe, &sliceSource{blocks: stream}, cs)
		c.Run(runFor)
		return float64(cs.Instructions), nil
	})
	if err != nil {
		return err
	}
	b.setLayer("cpu.ns_per_instr", ns, "ns")
	b.setLayer("cpu.allocs_per_kinstr", 1e3*allocs, "alloc/kinstr")
	cmpCfg := cmp.DefaultConfig(cores)
	cmpCfg.PrefetcherName = "discontinuity"
	cmpCfg.FrontEnd.BypassL2 = true
	ns, allocs, err = b.layer("cmp.System.Run", func() (float64, error) {
		var ss []workload.Source
		for _, s := range streams {
			ss = append(ss, &sliceSource{blocks: s})
		}
		sys, err := cmp.New(cmpCfg, ss, nil)
		if err != nil {
			return 0, err
		}
		sys.Run(runFor)
		t := sys.TotalStats()
		return float64(t.Instructions), nil
	})
	if err != nil {
		return err
	}
	b.setLayer("cmp.ns_per_instr", ns, "ns")
	b.setLayer("cmp.allocs_per_kinstr", 1e3*allocs, "alloc/kinstr")

	if err := b.simLayers(); err != nil {
		return err
	}
	if err := b.journalLayer(); err != nil {
		return err
	}
	return b.serviceLayer(ctx)
}

// simLayers times machine construction (sources and cmp.New), snapshot
// and restore of the daemon sweeps' machine after its warm phase.
func (b *bench) simLayers() error {
	w := liveWorkload(sweepWorkload)
	cfg := cmp.DefaultConfig(cores)
	cfg.PrefetcherName = "discontinuity"
	cfg.FrontEnd.BypassL2 = true
	build := func() (*cmp.System, error) {
		srcs, err := cmp.SourcesFor(w.Apps, cores, b.simSeed)
		if err != nil {
			return nil, err
		}
		return cmp.New(cfg, srcs, nil)
	}
	var sys *cmp.System
	ns, _, err := b.layer("sim.build", func() (float64, error) {
		var err error
		sys, err = build()
		return 1, err
	})
	if err != nil {
		return err
	}
	b.setLayer("sim.build_ms", ns/1e6, "ms")
	h := b.tr.begin("layer.cmp.System.Run.warm", -1, -1)
	sys.Run(b.b.sweepWarm)
	b.tr.end(h, 0)
	var snap *cmp.Snapshot
	ns, _, err = b.layer("cmp.System.Snapshot", func() (float64, error) {
		var err error
		snap, err = sys.Snapshot()
		return 1, err
	})
	if err != nil {
		return err
	}
	b.setLayer("sim.snapshot_ms", ns/1e6, "ms")
	var targets []*cmp.System
	for i := 0; i < b.b.layerReps; i++ {
		t, err := build()
		if err != nil {
			return err
		}
		targets = append(targets, t)
	}
	ns, _, err = b.layer("cmp.System.Restore", func() (float64, error) {
		t := targets[0]
		targets = targets[1:]
		return 1, t.Restore(snap)
	})
	if err != nil {
		return err
	}
	b.setLayer("sim.restore_ms", ns/1e6, "ms")
	return nil
}

// journalPuts is how many checkpoints one journal timing writes.
const journalPuts = 100

// journalLayer times sweep checkpoint writes.
func (b *bench) journalLayer() error {
	rep := 0
	ns, _, err := b.layer("sweep.Journal.Put", func() (float64, error) {
		rep++
		j, err := sweep.OpenJournal(filepath.Join(b.dir, fmt.Sprintf("layer-journal-%d", rep)))
		if err != nil {
			return 0, err
		}
		r := sweep.PointResult{Point: sweep.Point{Workload: sweepWorkload, Cores: cores, Scheme: "discontinuity"},
			IPC: 0.5, Instructions: 1_000_000, Cycles: 2_000_000}
		for i := 0; i < journalPuts; i++ {
			r.Key = fmt.Sprintf("simbench|%d", i)
			r.Point.Index = i
			if err := j.Put(r); err != nil {
				return 0, err
			}
		}
		return journalPuts, nil
	})
	if err != nil {
		return err
	}
	b.setLayer("sweep.journal_put_us", ns/1e3, "us")
	return nil
}

// serviceProbeSweeps is how many fork sweeps the service probe runs.
const serviceProbeSweeps = 3

// serviceLayer runs fork sweeps of the daemon-sweep grid through a
// fresh daemon and reports the median submit, sweep and artifact
// times.
func (b *bench) serviceLayer(ctx context.Context) error {
	d, err := startDaemon(filepath.Join(b.dir, "layer-daemon"), b.b.sweepWarm, b.b.sweepMeasure, b.simSeed)
	if err != nil {
		return err
	}
	defer d.stop()
	for i := 0; i < serviceProbeSweeps; i++ {
		h := b.tr.begin("layer.service", -1, -1)
		_, _, err := d.sweepOp(ctx, b.tr, "layer.", -1, h, b.sweepSpec(true, mix(b.opts.seed, uint64(1000+i))))
		b.tr.end(h, 0)
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
	}
	b.setLayer("service.submit_ms", median(b.tr.durations("layer.service.submit", false))/1e6, "ms")
	b.setLayer("service.sweep_s", median(b.tr.durations("layer.service.sweep", false))/1e9, "s")
	b.setLayer("service.artifact_ms", median(b.tr.durations("layer.service.artifact", false))/1e6, "ms")
	return nil
}
