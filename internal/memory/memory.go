// Package memory models what lies beyond the L2: a fixed-latency DRAM
// behind a finite off-chip link, plus MSHR-style tracking of in-flight
// line transfers.
//
// The paper's machine is a 3 GHz part with 10 GB/s (single core) or
// 20 GB/s (4-way CMP) of off-chip bandwidth and a 400-cycle memory
// latency. Bandwidth matters because aggressive prefetching generates
// off-chip traffic that can delay demand misses — one of the two reasons
// (with pollution) the paper gives for prefetchers not reaching the
// limits-study gains.
package memory

import (
	"repro/internal/isa"
	"repro/internal/linetab"
)

// PortConfig describes the off-chip link and DRAM.
type PortConfig struct {
	// LatencyCycles is the unloaded memory access latency.
	LatencyCycles uint64
	// BytesPerCycle is the sustainable off-chip bandwidth expressed in
	// bytes per core clock (e.g. 10 GB/s at 3 GHz = 3.33 B/cycle).
	BytesPerCycle float64
	// LineBytes is the transfer unit.
	LineBytes int
}

// Port serialises line transfers over the off-chip link. A transfer
// arriving at cycle t begins when the link is free, occupies the link for
// LineBytes/BytesPerCycle cycles, and completes a full DRAM latency after
// it began. Not safe for concurrent use.
type Port struct {
	latency       uint64
	cyclesPerLine float64
	portState
}

// portState is a port's dynamic state, the part a PortSnapshot copies.
type portState struct {
	nextFree   float64
	transfers  uint64
	busyCycles float64
}

// NewPort builds a port; a zero or negative bandwidth means an infinite
// link (transfers never queue).
func NewPort(cfg PortConfig) *Port {
	p := &Port{latency: cfg.LatencyCycles}
	if cfg.BytesPerCycle > 0 {
		p.cyclesPerLine = float64(cfg.LineBytes) / cfg.BytesPerCycle
	}
	return p
}

// Request schedules one line transfer issued at cycle now and returns the
// cycle at which the line is available on chip.
func (p *Port) Request(now uint64) uint64 {
	start := float64(now)
	if p.nextFree > start {
		start = p.nextFree
	}
	p.nextFree = start + p.cyclesPerLine
	p.transfers++
	p.busyCycles += p.cyclesPerLine
	return uint64(start) + p.latency
}

// Latency returns the unloaded DRAM latency in cycles.
func (p *Port) Latency() uint64 { return p.latency }

// Transfers returns the number of line transfers performed.
func (p *Port) Transfers() uint64 { return p.transfers }

// BusyCycles returns total link occupancy, for utilisation reporting.
func (p *Port) BusyCycles() float64 { return p.busyCycles }

// QueueDelay returns how long a request issued at now would wait before
// its transfer begins (diagnostics; does not reserve the link).
func (p *Port) QueueDelay(now uint64) uint64 {
	if p.nextFree <= float64(now) {
		return 0
	}
	return uint64(p.nextFree - float64(now))
}

// InFlight tracks lines whose fills have been initiated but not yet
// completed — the simulator's MSHR file. A demand reference that finds
// its line in flight waits only for the remaining latency instead of
// initiating a second transfer; this is how partially-timely prefetches
// hide part of the miss latency.
//
// Every instruction fetch, data access and prefetch issue consults this
// tracker, so it is a line-keyed hash table (linetab) starting at 64
// slots and doubling past half load, not a Go map.
type InFlight struct {
	inFlightState
}

// inFlightState is a tracker's dynamic state, the part an
// InFlightSnapshot copies.
type inFlightState struct {
	t *linetab.Table[uint64] // line → completion cycle
}

// NewInFlight creates an empty, unbounded tracker.
func NewInFlight() *InFlight {
	return &InFlight{inFlightState{t: linetab.New[uint64](64, 0)}}
}

// Start records that line l completes at the given cycle. Starting an
// already-tracked line keeps the earlier completion time.
func (f *InFlight) Start(l isa.Line, completeAt uint64) {
	c, ok := f.t.Ref(l)
	if !ok || completeAt < *c {
		*c = completeAt
	}
	if 2*f.t.Len() > f.t.Size() {
		f.t.Grow()
	}
}

// Lookup returns the completion cycle for line l if it is in flight at
// cycle now. Entries whose completion is at or before now are treated as
// landed and removed.
func (f *InFlight) Lookup(l isa.Line, now uint64) (uint64, bool) {
	c, ok := f.t.Get(l)
	if !ok {
		return 0, false
	}
	if c > now {
		return c, true
	}
	f.t.Delete(l)
	return 0, false
}

// Contains reports whether l is tracked (regardless of completion time).
func (f *InFlight) Contains(l isa.Line) bool {
	return f.t.Ptr(l) != nil
}

// Complete removes line l from the tracker (its fill has been consumed).
func (f *InFlight) Complete(l isa.Line) {
	f.t.Delete(l)
}

// Expire removes all entries whose completion cycle is at or before now.
// The simulator calls it periodically to bound table growth. The keys
// are collected first and then deleted one by one, because
// backward-shift deletion moves entries while a scan is in progress.
func (f *InFlight) Expire(now uint64) {
	for _, l := range f.t.Keys(nil) {
		if c, _ := f.t.Get(l); c <= now {
			f.t.Delete(l)
		}
	}
}

// Len returns the number of in-flight lines.
func (f *InFlight) Len() int { return f.t.Len() }
