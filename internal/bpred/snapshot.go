package bpred

import "fmt"

// Snapshot is a deep copy of a predictor's dynamic state (gshare
// counters, global history, BTB targets, RAS contents, statistics).
type Snapshot struct {
	state
}

// set makes s a copy of src that shares no memory with it.
func (s *state) set(src *state) {
	counters, btb, ras := s.counters, s.btb, s.ras
	*s = *src
	s.counters = append(counters[:0], src.counters...)
	s.btb = append(btb[:0], src.btb...)
	s.ras = append(ras[:0], src.ras...)
}

// Snapshot captures the predictor's current state.
func (p *Predictor) Snapshot() *Snapshot {
	s := new(Snapshot)
	s.set(&p.state)
	return s
}

// Restore overwrites the predictor's state with a copy of the
// snapshot's. The target must have the same table sizes.
func (p *Predictor) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("bpred: restore from nil snapshot")
	}
	if len(s.counters) != len(p.counters) || len(s.btb) != len(p.btb) || len(s.ras) != len(p.ras) {
		return fmt.Errorf("bpred: restore sizing mismatch: %d/%d/%d into %d/%d/%d",
			len(s.counters), len(s.btb), len(s.ras), len(p.counters), len(p.btb), len(p.ras))
	}
	p.set(&s.state)
	return nil
}
