package workload

import "fmt"

// Snapshotter is the snapshot capability of a workload Source: a deep
// copy of the stream cursor (SnapshotState) and the inverse operation
// (RestoreState). The returned state is opaque to callers and immutable
// once taken, so one snapshot can seed any number of equivalent sources
// — which is what lets fork-and-diverge sweeps replay a shared warm-up
// prefix into many divergent measurement machines. The read-ahead
// generator and the corpus trace replayer satisfy it. It stays apart
// from Source because trace.Loop, the source behind
// NewMachineFromTrace, has no snapshot and no caller needs one.
type Snapshotter interface {
	// SnapshotState returns a deep copy of the source's cursor.
	SnapshotState() any
	// RestoreState rewinds the source to a state captured from an
	// equivalent source (same program/trace, same seed lineage).
	RestoreState(state any) error
}

// generatorSnapshot is a read-ahead generator's position plus the
// identity of the program it walks (the state holds frame indices into
// that image).
type generatorSnapshot struct {
	asid uint64
	aheadState[generatorState]
}

// set makes s a copy of src that shares no memory with it.
func (s *generatorState) set(src *generatorState) {
	stack := s.stack
	*s = *src
	s.stack = append(stack[:0], src.stack...)
}

// SnapshotState implements Snapshotter.
func (r *generatorAhead) SnapshotState() any {
	s := &generatorSnapshot{asid: r.asid}
	s.at.set(&r.at)
	s.pos = r.pos
	return s
}

// RestoreState implements Snapshotter. The target must walk the same
// program. It regenerates the snapshot's current batch.
func (r *generatorAhead) RestoreState(state any) error {
	s, ok := state.(*generatorSnapshot)
	if !ok {
		return fmt.Errorf("workload: generator restore from %T", state)
	}
	if s.asid != r.asid {
		return fmt.Errorf("workload: generator restore across programs (ASID %d into %d)", s.asid, r.asid)
	}
	return r.restore(&s.at, s.pos)
}

// traceReplaySnapshot is a replayer's position plus the chunk count of
// the container it replays.
type traceReplaySnapshot struct {
	chunks int
	aheadState[int]
}

// SnapshotState implements Snapshotter.
func (r *traceReplay) SnapshotState() any {
	return &traceReplaySnapshot{chunks: r.chunks, aheadState: r.aheadState}
}

// RestoreState implements Snapshotter: it re-decodes the snapshot's
// current chunk and reads ahead from there, leaving the replayer
// exactly where the snapshot was taken.
func (r *traceReplay) RestoreState(state any) error {
	s, ok := state.(*traceReplaySnapshot)
	if !ok {
		return fmt.Errorf("workload: trace replay restore from %T", state)
	}
	if s.chunks != r.chunks || s.at >= s.chunks {
		return fmt.Errorf("workload: trace replay restore across containers (%d chunks into %d)", s.chunks, r.chunks)
	}
	if err := r.restore(&s.at, s.pos); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}
