// Package cache implements the set-associative caches of the simulated
// memory hierarchy: the per-core L1 instruction and data caches and the
// (optionally shared) unified L2.
//
// Lines carry the metadata the paper's mechanisms need:
//
//   - a Prefetched bit (the "prefetch tag" of next-line-tagged schemes),
//   - a Used bit recording whether the line was demand-referenced since
//     fill (drives prefetch-usefulness accounting and the L2-bypass
//     install-on-proven-useful policy of Section 7),
//   - an Inst bit so a unified L2 can split its miss statistics into
//     instruction and data components (Figures 2 and 7).
//
// Replacement is true LRU, maintained as an MRU→LRU ordered list per set,
// which is exact and fast for the small associativities modelled (≤ 32).
//
// Internally each set is a slice of two parallel arrays — line tags and a
// packed metadata byte per way — instead of an array of way structs. Tag
// lookup is the hottest loop in the simulator (every fetch, probe and
// fill runs it), and with parallel arrays an 8-way set's tags occupy one
// 64-byte cache line instead of being strided across 128 bytes of struct
// padding. The observable behaviour (hit/miss outcomes, LRU order,
// victims, flags) is unchanged.
package cache

import (
	"fmt"

	"repro/internal/isa"
)

// Policy selects the replacement policy.
type Policy uint8

const (
	// LRU is true least-recently-used (the paper's machines; default).
	LRU Policy = iota
	// FIFO evicts in fill order, ignoring reuse.
	FIFO
	// Random evicts a pseudo-random way (deterministic xorshift).
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes a cache's geometry.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// Assoc is the set associativity (1 = direct mapped).
	Assoc int
	// LineBytes is the line size in bytes (power of two).
	LineBytes int
	// Policy is the replacement policy (zero value = LRU).
	Policy Policy
}

// NumSets returns the number of sets implied by the geometry.
func (c Config) NumSets() int {
	return c.SizeBytes / (c.Assoc * c.LineBytes)
}

// Validate reports whether the geometry is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	sets := c.NumSets()
	if sets <= 0 || sets*c.Assoc*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %dB not divisible into %d-way sets of %dB lines",
			c.SizeBytes, c.Assoc, c.LineBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: number of sets %d not a power of two", sets)
	}
	if c.Policy > Random {
		return fmt.Errorf("cache: unknown replacement policy %d", c.Policy)
	}
	return nil
}

// Flags is the per-line metadata.
type Flags struct {
	// Prefetched is set when the line was filled by a prefetch and has
	// not yet been demand-referenced.
	Prefetched bool
	// Used is set once the line is demand-referenced after fill.
	Used bool
	// Inst marks instruction (vs data) lines in a unified cache.
	Inst bool
	// UselessPrefetch marks an L2 line whose previous prefetch into the
	// L1 was evicted unused (the Luk & Mowry usefulness filter the paper
	// cites in Section 2.4). A demand use clears it.
	UselessPrefetch bool
	// Dirty marks a line modified since fill (write-back modelling).
	Dirty bool
}

// Packed metadata bits: the valid bit plus one bit per Flags field.
const (
	mValid uint8 = 1 << iota
	mPrefetched
	mUsed
	mInst
	mUseless
	mDirty
)

func packFlags(f Flags) uint8 {
	var m uint8
	if f.Prefetched {
		m |= mPrefetched
	}
	if f.Used {
		m |= mUsed
	}
	if f.Inst {
		m |= mInst
	}
	if f.UselessPrefetch {
		m |= mUseless
	}
	if f.Dirty {
		m |= mDirty
	}
	return m
}

func unpackFlags(m uint8) Flags {
	return Flags{
		Prefetched:      m&mPrefetched != 0,
		Used:            m&mUsed != 0,
		Inst:            m&mInst != 0,
		UselessPrefetch: m&mUseless != 0,
		Dirty:           m&mDirty != 0,
	}
}

// Victim describes a line evicted by an insert.
type Victim struct {
	Line  isa.Line
	Flags Flags
}

// Cache is one level of the hierarchy. It is not safe for concurrent
// use; the simulator interleaves cores deterministically on one
// goroutine.
type Cache struct {
	cfg     Config
	setMask uint64
	assoc   int
	state
}

// state is the cache's dynamic state, the part a Snapshot copies.
type state struct {
	// Parallel per-way arrays; set s occupies [s*assoc, (s+1)*assoc),
	// ordered MRU (first) → LRU (last) within the set.
	lines []isa.Line
	meta  []uint8
	// fill counts valid ways per set, letting Insert skip the
	// invalid-way scan once a set is full (the steady state).
	fill     []uint8
	inserted uint64
	evicted  uint64
	rngState uint64 // deterministic victim selection for Random policy
}

// New builds a cache, panicking on invalid geometry (configurations are
// program constants, not user input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumSets() * cfg.Assoc
	return &Cache{
		cfg:     cfg,
		setMask: uint64(cfg.NumSets() - 1),
		assoc:   cfg.Assoc,
		state: state{
			lines:    make([]isa.Line, n),
			meta:     make([]uint8, n),
			fill:     make([]uint8, cfg.NumSets()),
			rngState: 0x9e3779b97f4a7c15,
		},
	}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// base returns the first way index of l's set.
func (c *Cache) base(l isa.Line) int {
	return int(uint64(l)&c.setMask) * c.assoc
}

// find returns the way offset of l within the set starting at base, or -1.
func (c *Cache) find(base int, l isa.Line) int {
	lines := c.lines[base : base+c.assoc]
	meta := c.meta[base : base+c.assoc]
	for i := range lines {
		if lines[i] == l && meta[i]&mValid != 0 {
			return i
		}
	}
	return -1
}

// touch moves way offset i of the set at base to the MRU position.
func (c *Cache) touch(base, i int) {
	if i == 0 {
		return
	}
	l, m := c.lines[base+i], c.meta[base+i]
	copy(c.lines[base+1:base+i+1], c.lines[base:base+i])
	copy(c.meta[base+1:base+i+1], c.meta[base:base+i])
	c.lines[base], c.meta[base] = l, m
}

// place moves way offset i of the set at base to recency position pos,
// shifting the intervening ways by one in the appropriate direction.
// place(base, i, 0) is equivalent to touch(base, i).
func (c *Cache) place(base, i, pos int) {
	if i == pos {
		return
	}
	l, m := c.lines[base+i], c.meta[base+i]
	if pos < i {
		copy(c.lines[base+pos+1:base+i+1], c.lines[base+pos:base+i])
		copy(c.meta[base+pos+1:base+i+1], c.meta[base+pos:base+i])
	} else {
		copy(c.lines[base+i:base+pos], c.lines[base+i+1:base+pos+1])
		copy(c.meta[base+i:base+pos], c.meta[base+i+1:base+pos+1])
	}
	c.lines[base+pos], c.meta[base+pos] = l, m
}

// Probe reports whether line l is present, without updating replacement
// state or flags. This models a prefetcher's tag inspection.
func (c *Cache) Probe(l isa.Line) bool {
	return c.find(c.base(l), l) >= 0
}

// PeekFlags returns the flags of line l without any side effects.
func (c *Cache) PeekFlags(l isa.Line) (Flags, bool) {
	base := c.base(l)
	if i := c.find(base, l); i >= 0 {
		return unpackFlags(c.meta[base+i]), true
	}
	return Flags{}, false
}

// Access performs a demand reference to line l. On a hit it promotes the
// line to MRU, records the use (clearing Prefetched, setting Used) and
// returns hit=true along with the flags the line had *before* this
// access (so callers can see whether the hit consumed a prefetch). On a
// miss it returns hit=false; the caller is responsible for filling via
// Insert after the miss is serviced.
func (c *Cache) Access(l isa.Line) (hit bool, prior Flags) {
	base := c.base(l)
	i := c.find(base, l)
	if i < 0 {
		return false, Flags{}
	}
	m := c.meta[base+i]
	prior = unpackFlags(m)
	c.meta[base+i] = (m &^ (mPrefetched | mUseless)) | mUsed
	if c.cfg.Policy == LRU {
		// FIFO and Random keep fill order; only LRU promotes on use.
		c.touch(base, i)
	}
	return true, prior
}

// Insert fills line l with the given flags, evicting the LRU way if the
// set is full. It returns the victim (valid only when evicted is true).
// If l is already present, its flags are overwritten and it is promoted
// to MRU with no eviction.
func (c *Cache) Insert(l isa.Line, f Flags) (victim Victim, evicted bool) {
	set := int(uint64(l) & c.setMask)
	base := set * c.assoc
	if i := c.find(base, l); i >= 0 {
		c.meta[base+i] = packFlags(f) | mValid
		c.touch(base, i)
		return Victim{}, false
	}
	c.inserted++
	// Look for an invalid way (take the last one so valid MRU ordering
	// is preserved); a full set — the steady state — skips the scan.
	slot := -1
	if int(c.fill[set]) < c.assoc {
		c.fill[set]++
		for i := c.assoc - 1; i >= 0; i-- {
			if c.meta[base+i]&mValid == 0 {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		// Pick a victim: the last element is the LRU (or oldest fill,
		// for FIFO, since fills also move to the front); Random picks a
		// deterministic pseudo-random way.
		slot = c.assoc - 1
		if c.cfg.Policy == Random {
			c.rngState ^= c.rngState << 13
			c.rngState ^= c.rngState >> 7
			c.rngState ^= c.rngState << 17
			slot = int(c.rngState % uint64(c.assoc))
		}
		victim = Victim{Line: c.lines[base+slot], Flags: unpackFlags(c.meta[base+slot])}
		evicted = true
		c.evicted++
	}
	c.lines[base+slot] = l
	c.meta[base+slot] = packFlags(f) | mValid
	c.touch(base, slot)
	return victim, evicted
}

// InsertAtDepth fills line l like Insert, but installs it at recency
// position depth (0 = MRU, assoc-1 = LRU) instead of unconditionally at
// MRU. The position is clamped to the valid-way count so partially
// filled sets keep their invalid ways at the tail. Depth 0 takes the
// exact Insert path, so default-policy behaviour is unchanged.
// Prefetch-aware insertion policies use this to limit how much live
// demand state an inaccurate prefetcher can displace.
func (c *Cache) InsertAtDepth(l isa.Line, f Flags, depth int) (victim Victim, evicted bool) {
	if depth <= 0 {
		return c.Insert(l, f)
	}
	set := int(uint64(l) & c.setMask)
	base := set * c.assoc
	if i := c.find(base, l); i >= 0 {
		c.meta[base+i] = packFlags(f) | mValid
		c.place(base, i, c.clampDepth(set, depth))
		return Victim{}, false
	}
	c.inserted++
	slot := -1
	if int(c.fill[set]) < c.assoc {
		c.fill[set]++
		for i := c.assoc - 1; i >= 0; i-- {
			if c.meta[base+i]&mValid == 0 {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		slot = c.assoc - 1
		if c.cfg.Policy == Random {
			c.rngState ^= c.rngState << 13
			c.rngState ^= c.rngState >> 7
			c.rngState ^= c.rngState << 17
			slot = int(c.rngState % uint64(c.assoc))
		}
		victim = Victim{Line: c.lines[base+slot], Flags: unpackFlags(c.meta[base+slot])}
		evicted = true
		c.evicted++
	}
	c.lines[base+slot] = l
	c.meta[base+slot] = packFlags(f) | mValid
	c.place(base, slot, c.clampDepth(set, depth))
	return victim, evicted
}

// clampDepth bounds a requested insertion depth to the deepest valid
// recency position of the set.
func (c *Cache) clampDepth(set, depth int) int {
	if last := int(c.fill[set]) - 1; depth > last {
		return last
	}
	return depth
}

// Invalidate removes line l if present, returning its flags.
func (c *Cache) Invalidate(l isa.Line) (Flags, bool) {
	set := int(uint64(l) & c.setMask)
	base := set * c.assoc
	i := c.find(base, l)
	if i < 0 {
		return Flags{}, false
	}
	c.fill[set]--
	f := unpackFlags(c.meta[base+i])
	// Shift the invalidated way to the end as an invalid slot.
	l2, m := c.lines[base+i], c.meta[base+i]
	copy(c.lines[base+i:base+c.assoc-1], c.lines[base+i+1:base+c.assoc])
	copy(c.meta[base+i:base+c.assoc-1], c.meta[base+i+1:base+c.assoc])
	c.lines[base+c.assoc-1] = l2
	c.meta[base+c.assoc-1] = m &^ mValid
	return f, true
}

// SetUselessPrefetch sets (or clears) the useless-prefetch marker of
// line l if present, returning whether the line was found.
func (c *Cache) SetUselessPrefetch(l isa.Line, v bool) bool {
	base := c.base(l)
	if i := c.find(base, l); i >= 0 {
		if v {
			c.meta[base+i] |= mUseless
		} else {
			c.meta[base+i] &^= mUseless
		}
		return true
	}
	return false
}

// MarkDirty sets the Dirty bit of line l if present, returning whether
// the line was found.
func (c *Cache) MarkDirty(l isa.Line) bool {
	base := c.base(l)
	if i := c.find(base, l); i >= 0 {
		c.meta[base+i] |= mDirty
		return true
	}
	return false
}

// MarkUsed sets the Used bit of line l if present (without promoting).
// The front-end uses it when a demand fetch consumes a line that is
// known-present via other paths.
func (c *Cache) MarkUsed(l isa.Line) bool {
	base := c.base(l)
	if i := c.find(base, l); i >= 0 {
		c.meta[base+i] = (c.meta[base+i] &^ mPrefetched) | mUsed
		return true
	}
	return false
}

// Inserted and Evicted return lifetime fill/eviction counts (used by
// tests and diagnostics).
func (c *Cache) Inserted() uint64 { return c.inserted }

// Evicted returns the number of lines evicted over the cache's lifetime.
func (c *Cache) Evicted() uint64 { return c.evicted }

// CountValid returns the number of valid lines (diagnostics/tests).
func (c *Cache) CountValid() int {
	n := 0
	for _, m := range c.meta {
		if m&mValid != 0 {
			n++
		}
	}
	return n
}

// CountValidWhere returns the number of valid lines whose flags satisfy
// pred. Used to measure instruction-vs-data occupancy of the unified L2
// when analysing pollution.
func (c *Cache) CountValidWhere(pred func(Flags) bool) int {
	n := 0
	for _, m := range c.meta {
		if m&mValid != 0 && pred(unpackFlags(m)) {
			n++
		}
	}
	return n
}
