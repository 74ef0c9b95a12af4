package memory

import (
	"fmt"

	"repro/internal/linetab"
)

// PortSnapshot is a copy of a port's dynamic state.
type PortSnapshot struct {
	portState
}

// Snapshot captures the port's current state.
func (p *Port) Snapshot() *PortSnapshot {
	return &PortSnapshot{p.portState}
}

// Restore overwrites the port's state with the snapshot's.
func (p *Port) Restore(s *PortSnapshot) error {
	if s == nil {
		return fmt.Errorf("memory: restore port from nil snapshot")
	}
	p.portState = s.portState
	return nil
}

// InFlightSnapshot is a deep copy of an in-flight tracker's table. The
// whole table (including its current size) is captured so a restore
// reproduces probe order bit-for-bit.
type InFlightSnapshot struct {
	inFlightState
}

// set makes s a copy of src that shares no memory with it.
func (s *inFlightState) set(src *inFlightState) {
	s.t = linetab.Copy(s.t, src.t)
}

// Snapshot captures the tracker's current state.
func (f *InFlight) Snapshot() *InFlightSnapshot {
	s := new(InFlightSnapshot)
	s.set(&f.inFlightState)
	return s
}

// Restore overwrites the tracker's state with a copy of the snapshot's.
// The target's table adopts the snapshot's size (the tracker grows
// dynamically, so sizes legitimately differ across machines).
func (f *InFlight) Restore(s *InFlightSnapshot) error {
	if s == nil {
		return fmt.Errorf("memory: restore in-flight tracker from nil snapshot")
	}
	f.set(&s.inFlightState)
	return nil
}
