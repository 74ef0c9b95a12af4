// Package bpred implements the front-end predictors of the modelled core
// (paper Section 5): a gshare conditional-branch predictor with 2-bit
// saturating counters, a direct-mapped tagless branch target buffer for
// indirect jumps, and a return address stack.
//
// The timing model only needs to know whether each control transfer was
// predicted correctly — a mispredict costs a pipeline refill — so the
// predictors expose combined predict-and-update operations driven by the
// actual outcome from the workload stream.
package bpred

import "repro/internal/isa"

// Config sizes the predictors. All counts must be powers of two except
// RASEntries.
type Config struct {
	// GshareEntries is the number of 2-bit counters (paper: 64 K).
	GshareEntries int
	// BTBEntries is the number of direct-mapped tagless BTB slots
	// (paper: 1 K).
	BTBEntries int
	// RASEntries is the return address stack depth (paper: 16).
	RASEntries int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{GshareEntries: 64 << 10, BTBEntries: 1 << 10, RASEntries: 16}
}

// Predictor bundles gshare, BTB and RAS. Not safe for concurrent use;
// each simulated core owns one.
type Predictor struct {
	gmask   uint64
	btbMask uint64
	state
}

// state is a predictor's dynamic state, the part a Snapshot copies.
type state struct {
	counters  []uint8 // 2-bit saturating, 0..3, taken when >= 2
	history   uint64
	btb       []isa.Addr
	ras       []isa.Addr
	rasTop    int // number of valid entries
	predicted uint64
	wrong     uint64
}

// New builds a predictor, panicking on invalid sizing (configurations are
// program constants).
func New(cfg Config) *Predictor {
	if cfg.GshareEntries <= 0 || cfg.GshareEntries&(cfg.GshareEntries-1) != 0 {
		panic("bpred: gshare entries must be a positive power of two")
	}
	if cfg.BTBEntries <= 0 || cfg.BTBEntries&(cfg.BTBEntries-1) != 0 {
		panic("bpred: BTB entries must be a positive power of two")
	}
	if cfg.RASEntries <= 0 {
		panic("bpred: RAS entries must be positive")
	}
	p := &Predictor{
		gmask:   uint64(cfg.GshareEntries - 1),
		btbMask: uint64(cfg.BTBEntries - 1),
		state: state{
			counters: make([]uint8, cfg.GshareEntries),
			btb:      make([]isa.Addr, cfg.BTBEntries),
			ras:      make([]isa.Addr, cfg.RASEntries),
		},
	}
	// Weakly taken initial state: commercial code is branch-taken-biased.
	for i := range p.counters {
		p.counters[i] = 2
	}
	return p
}

// historyBits bounds the global history folded into the index. Using
// fewer history bits than the table index width reduces destructive
// aliasing on the very large branch working sets of commercial code.
const historyBits = 10

// gindex computes the gshare table index for a branch PC.
func (p *Predictor) gindex(pc isa.Addr) uint64 {
	return ((uint64(pc) >> 2) ^ (p.history & ((1 << historyBits) - 1))) & p.gmask
}

// PredictCond predicts a conditional branch at pc, updates the predictor
// with the actual outcome, and reports whether the prediction was
// correct.
func (p *Predictor) PredictCond(pc isa.Addr, taken bool) bool {
	idx := p.gindex(pc)
	pred := p.counters[idx] >= 2
	if taken {
		if p.counters[idx] < 3 {
			p.counters[idx]++
		}
	} else {
		if p.counters[idx] > 0 {
			p.counters[idx]--
		}
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
	p.predicted++
	if pred != taken {
		p.wrong++
		return false
	}
	return true
}

// PredictIndirect predicts the target of an indirect jump at pc via the
// BTB, updates the BTB with the actual target, and reports correctness.
// The BTB is tagless: aliasing PCs share a slot, as in the paper.
func (p *Predictor) PredictIndirect(pc, actual isa.Addr) bool {
	idx := (uint64(pc) >> 2) & p.btbMask
	pred := p.btb[idx]
	p.btb[idx] = actual
	p.predicted++
	if pred != actual {
		p.wrong++
		return false
	}
	return true
}

// Call pushes a return address onto the RAS. When the stack is full the
// oldest entry is overwritten (circular), matching hardware behaviour.
func (p *Predictor) Call(retAddr isa.Addr) {
	if p.rasTop < len(p.ras) {
		p.ras[p.rasTop] = retAddr
		p.rasTop++
		return
	}
	copy(p.ras, p.ras[1:])
	p.ras[len(p.ras)-1] = retAddr
}

// PredictReturn pops the RAS, compares with the actual return target, and
// reports correctness. An empty stack always mispredicts.
func (p *Predictor) PredictReturn(actual isa.Addr) bool {
	p.predicted++
	if p.rasTop == 0 {
		p.wrong++
		return false
	}
	p.rasTop--
	if p.ras[p.rasTop] != actual {
		p.wrong++
		return false
	}
	return true
}

// RASDepth returns the number of valid RAS entries (tests/diagnostics).
func (p *Predictor) RASDepth() int { return p.rasTop }

// Predictions returns the number of predictions made.
func (p *Predictor) Predictions() uint64 { return p.predicted }

// Mispredictions returns the number of wrong predictions.
func (p *Predictor) Mispredictions() uint64 { return p.wrong }

// MispredictRate returns wrong/predicted, or 0 when nothing was
// predicted.
func (p *Predictor) MispredictRate() float64 {
	if p.predicted == 0 {
		return 0
	}
	return float64(p.wrong) / float64(p.predicted)
}
