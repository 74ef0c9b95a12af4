// Package cmp assembles complete simulated machines: a single-core
// processor with a private L2, or the paper's 4-way CMP in which four
// cores with private L1s share one unified L2 and one off-chip port.
//
// Cores are interleaved deterministically by always stepping the core
// with the smallest local clock, which approximates concurrent execution
// over the shared resources without any nondeterminism.
package cmp

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memory"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/workload"

	// Register the "hybrid:a+b+c" composite scheme family with the
	// prefetch registry; every machine consumer (sim, sweep, service,
	// dist workers, CLIs) assembles through this package, so the import
	// here makes hybrid names resolve everywhere.
	_ "repro/internal/prefetch/hybrid"
)

// Config describes a whole machine.
type Config struct {
	// NumCores is 1 (single-core) or more (CMP sharing the L2).
	NumCores int
	// Core is the per-core timing configuration.
	Core cpu.Config
	// FrontEnd is the per-core fetch/prefetch configuration.
	FrontEnd core.FrontEndConfig
	// Mem is the shared L2 + off-chip configuration.
	Mem core.MemSystemConfig
	// PrefetcherName selects the prefetch scheme (see internal/prefetch
	// registry); every core gets its own instance.
	PrefetcherName string
	// ModelWritebacks enables dirty-line write-back traffic end to end.
	ModelWritebacks bool
}

// DefaultConfig returns the paper's machine (Section 5) with n cores:
// 32 KB/4-way/64 B L1s, 2 MB/4-way/64 B shared L2 with 25-cycle latency,
// 400-cycle memory, and 10 GB/s (single core) or 20 GB/s (CMP) of
// off-chip bandwidth at 3 GHz.
func DefaultConfig(n int) Config {
	bytesPerCycle := 10.0e9 / 3.0e9 // 10 GB/s at 3 GHz
	if n > 1 {
		bytesPerCycle = 20.0e9 / 3.0e9
	}
	return Config{
		NumCores: n,
		Core:     cpu.DefaultConfig(),
		FrontEnd: core.DefaultFrontEndConfig(),
		Mem: core.MemSystemConfig{
			L2:              cache.Config{SizeBytes: 2 << 20, Assoc: 4, LineBytes: 64},
			L2LatencyCycles: 25,
			Port: memory.PortConfig{
				LatencyCycles: 400,
				BytesPerCycle: bytesPerCycle,
				LineBytes:     64,
			},
		},
		PrefetcherName: "none",
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.NumCores < 1 {
		return fmt.Errorf("cmp: need at least one core")
	}
	if err := c.FrontEnd.L1I.Validate(); err != nil {
		return err
	}
	if err := c.Mem.L2.Validate(); err != nil {
		return err
	}
	if err := c.Core.L1D.Validate(); err != nil {
		return err
	}
	if _, err := prefetch.New(c.PrefetcherName); err != nil {
		return err
	}
	return nil
}

// System is one simulated machine bound to its workload sources.
type System struct {
	cfg   Config
	mem   *core.MemSystem
	cores []*cpu.Core
	stats []*stats.CoreStats
}

// New builds a machine. sources supplies one block stream per core; the
// machine takes over each *workload.Generator among them and reads it
// ahead (workload.ReadAhead), so the caller must not use one again.
// prefetcherOverride, when non-nil, is called per core to construct the
// prefetcher instead of the registry (used by table-size sweeps).
func New(cfg Config, sources []workload.Source, prefetcherOverride func(coreID int) prefetch.Prefetcher) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.NumCores {
		return nil, fmt.Errorf("cmp: %d sources for %d cores", len(sources), cfg.NumCores)
	}
	if cfg.ModelWritebacks {
		cfg.Mem.ModelWritebacks = true
		cfg.Core.ModelWritebacks = true
	}
	s := &System{cfg: cfg, mem: core.NewMemSystem(cfg.Mem)}
	for i := 0; i < cfg.NumCores; i++ {
		cs := &stats.CoreStats{}
		var pf prefetch.Prefetcher
		if prefetcherOverride != nil {
			pf = prefetcherOverride(i)
		} else {
			pf = prefetch.MustNew(cfg.PrefetcherName)
		}
		src := sources[i]
		if g, ok := src.(*workload.Generator); ok {
			src = workload.ReadAhead(g)
		}
		fe := core.NewFrontEnd(cfg.FrontEnd, pf, s.mem, cs)
		s.cores = append(s.cores, cpu.New(cfg.Core, fe, src, cs))
		s.stats = append(s.stats, cs)
	}
	return s, nil
}

// MustNew is New that panics on error, for experiment code with literal
// configurations.
func MustNew(cfg Config, sources []workload.Source, override func(int) prefetch.Prefetcher) *System {
	s, err := New(cfg, sources, override)
	if err != nil {
		panic(err)
	}
	return s
}

// Mem returns the shared memory system.
func (s *System) Mem() *core.MemSystem { return s.mem }

// Cores returns the machine's cores.
func (s *System) Cores() []*cpu.Core { return s.cores }

// Run executes until every core has retired at least n more
// instructions, interleaving cores by local clock so shared-L2 and
// bandwidth contention is modelled fairly.
func (s *System) Run(nPerCore uint64) {
	// context.Background never cancels, so the error is always nil.
	_ = s.RunContext(context.Background(), nPerCore)
}

// ctxCheckInterval is how many core steps run between context polls: a
// power of two large enough to keep the poll off the hot path (< 0.1 %
// of step cost) and small enough to cancel within milliseconds.
const ctxCheckInterval = 1 << 14

// expireInterval is how many core steps run between expiries of the
// shared in-flight tracker (see expireLanded).
const expireInterval = 1 << 10

// RunContext is Run with cooperative cancellation: the simulation polls
// ctx every few thousand steps and returns ctx.Err() if it fires,
// leaving the machine in a consistent (but mid-run) state.
//
// The scheduling policy is "always step the core with the smallest
// local clock, lowest index on ties". A per-step scan over all cores
// would implement that directly but costs O(NumCores) per step, so the
// loop instead caches the runner-up: after one scan selects the lagging
// core, that core is stepped in a batch for as long as the scan would
// keep selecting it — until its clock passes the second-smallest clock
// (which cannot change while the others are idle) or it reaches its
// instruction target. The step sequence is identical to the per-step
// scan's, so simulation results are bit-for-bit unchanged.
func (s *System) RunContext(ctx context.Context, nPerCore uint64) error {
	targets := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		targets[i] = c.Stats().Instructions + nPerCore
	}
	steps := 0
	for {
		// Scan for the lagging unfinished core and the runner-up clock.
		best, second := -1, -1
		var bestClock, secondClock float64
		for i, c := range s.cores {
			if c.Stats().Instructions >= targets[i] {
				continue
			}
			cl := c.Clock()
			switch {
			case best < 0 || cl < bestClock:
				second, secondClock = best, bestClock
				best, bestClock = i, cl
			case second < 0 || cl < secondClock:
				second, secondClock = i, cl
			}
		}
		if best < 0 {
			return nil
		}
		c, target := s.cores[best], targets[best]
		for c.Stats().Instructions < target {
			if second >= 0 {
				// Would the scan still pick this core? Smaller clock
				// always wins; an exact tie goes to the lower index.
				if cl := c.Clock(); cl > secondClock || (cl == secondClock && best > second) {
					break
				}
			}
			c.Step()
			steps++
			if steps&(expireInterval-1) == 0 {
				s.expireLanded()
			}
			if steps&(ctxCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
}

// expireLanded drops from the shared in-flight tracker every fill that
// has landed for all cores: those complete at or before the smallest
// core clock, finished cores included. A core's clock only grows and
// every memory-system look-up it makes uses a cycle at or above it, so
// each such entry already reads as landed, and the look-up would delete
// it; nothing observable changes, but the table stays small. (The
// front ends' own expiry, at their core's cycle, stays as it is: other
// cores can observe it.)
func (s *System) expireLanded() {
	m := s.cores[0].Clock()
	for _, c := range s.cores[1:] {
		m = min(m, c.Clock())
	}
	s.mem.Expire(uint64(m))
}

// ResetStats begins a fresh measurement window on every core (after
// warm-up), preserving microarchitectural state.
func (s *System) ResetStats() {
	for _, c := range s.cores {
		c.ResetStats()
	}
}

// Finalize flushes per-core statistics.
func (s *System) Finalize() {
	for _, c := range s.cores {
		c.Finalize()
	}
}

// CoreStats returns core i's statistics.
func (s *System) CoreStats(i int) *stats.CoreStats { return s.stats[i] }

// TotalStats aggregates all cores (cycles take the maximum; counts sum).
func (s *System) TotalStats() stats.CoreStats {
	var total stats.CoreStats
	for _, cs := range s.stats {
		total.Merge(cs)
	}
	return total
}

// AggregateIPC returns total instructions divided by the longest core's
// cycles — the CMP throughput metric used for performance ratios.
func (s *System) AggregateIPC() float64 {
	t := s.TotalStats()
	return t.IPC()
}

// SourcesFor builds the workload sources for a machine: n cores running
// the named applications (one name for a homogeneous machine, or one
// name per core for a mix, cycled if shorter than numCores).
//
// Cores running the same application are threads of one server process:
// they share a program image (code, hot/cold data) and differ only in
// their walk seed and private stack/near regions — matching how the
// paper's homogeneous CMP workloads deploy. Distinct applications are
// separate processes in disjoint address spaces, so the multiprogrammed
// Mix shares nothing, which is what makes its shared-L2 miss rate
// super-additive (paper Section 3.1).
// Recorded-trace workloads replay a corpus entry instead: a name of
// the form "trace:<id>" resolves through the registered trace
// providers (see RegisterTraceProvider), and each core gets its own
// replay cursor over the shared container.
func SourcesFor(names []string, numCores int, seed uint64) ([]workload.Source, error) {
	progs := map[string]*workload.Program{}
	nextASID := uint64(0)
	threadCount := map[string]int{}
	srcs := make([]workload.Source, numCores)
	for i := 0; i < numCores; i++ {
		name := names[i%len(names)]
		if id, ok := strings.CutPrefix(name, TraceWorkloadPrefix); ok {
			src, err := traceSource(id)
			if err != nil {
				return nil, err
			}
			srcs[i] = src
			continue
		}
		prog, ok := progs[name]
		if !ok {
			var err error
			prog, err = cachedProgram(name, nextASID)
			if err != nil {
				return nil, err
			}
			nextASID++
			progs[name] = prog
		}
		tid := threadCount[name]
		threadCount[name]++
		srcs[i] = workload.NewGeneratorThread(prog, seed+uint64(i)*0x1234567, tid)
	}
	return srcs, nil
}

// progCache memoises program images across machine constructions.
// BuildProgram is a pure function of (profile, asid), profile
// resolution is deterministic per name (the adv: foundry memoises its
// searches), and a Program is immutable once built — generators keep
// every cursor privately — so machines on any goroutine can share one
// image. Building an image costs tens of milliseconds, which would
// otherwise dominate dense fork-and-diverge sweeps whose measured
// phases are short.
var progCache sync.Map // progKey -> *workload.Program

type progKey struct {
	name string
	asid uint64
}

func cachedProgram(name string, asid uint64) (*workload.Program, error) {
	k := progKey{name, asid}
	if p, ok := progCache.Load(k); ok {
		return p.(*workload.Program), nil
	}
	prof, err := resolveProfile(name)
	if err != nil {
		return nil, err
	}
	prog, err := workload.BuildProgram(prof, asid)
	if err != nil {
		return nil, err
	}
	p, _ := progCache.LoadOrStore(k, prog)
	return p.(*workload.Program), nil
}
