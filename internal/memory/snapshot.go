package memory

import (
	"fmt"

	"repro/internal/linetab"
)

// PortSnapshot is a deep copy of a port's dynamic state.
type PortSnapshot struct {
	nextFree   float64
	transfers  uint64
	busyCycles float64
}

// Snapshot captures the port's current state.
func (p *Port) Snapshot() *PortSnapshot {
	return &PortSnapshot{nextFree: p.nextFree, transfers: p.transfers, busyCycles: p.busyCycles}
}

// Restore overwrites the port's state with the snapshot's.
func (p *Port) Restore(s *PortSnapshot) error {
	if s == nil {
		return fmt.Errorf("memory: restore port from nil snapshot")
	}
	p.nextFree = s.nextFree
	p.transfers = s.transfers
	p.busyCycles = s.busyCycles
	return nil
}

// InFlightSnapshot is a deep copy of an in-flight tracker's table. The
// whole table (including its current size) is captured so a restore
// reproduces probe order bit-for-bit.
type InFlightSnapshot struct {
	t *linetab.Table[uint64]
}

// Snapshot captures the tracker's current state.
func (f *InFlight) Snapshot() *InFlightSnapshot {
	return &InFlightSnapshot{t: f.t.Clone()}
}

// Restore overwrites the tracker's state with a copy of the snapshot's.
// The target's table adopts the snapshot's size (the tracker grows
// dynamically, so sizes legitimately differ across machines).
func (f *InFlight) Restore(s *InFlightSnapshot) error {
	if s == nil {
		return fmt.Errorf("memory: restore in-flight tracker from nil snapshot")
	}
	f.t.CopyFrom(s.t)
	return nil
}
