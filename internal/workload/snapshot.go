package workload

import "fmt"

// Snapshotter is the snapshot capability of a workload Source: a deep
// copy of the stream cursor (SnapshotState) and the inverse operation
// (RestoreState). The returned state is opaque to callers and immutable
// once taken, so one snapshot can seed any number of equivalent sources
// — which is what lets fork-and-diverge sweeps replay a shared warm-up
// prefix into many divergent measurement machines. The generator and
// the corpus trace replayer satisfy it. It stays apart from Source
// because trace.Loop, the source behind NewMachineFromTrace, has no
// snapshot and no caller needs one.
type Snapshotter interface {
	// SnapshotState returns a deep copy of the source's cursor.
	SnapshotState() any
	// RestoreState rewinds the source to a state captured from an
	// equivalent source (same program/trace, same seed lineage).
	RestoreState(state any) error
}

// generatorSnapshot is a Generator's state plus the identity of the
// program it walks (the state holds frame indices into that image).
type generatorSnapshot struct {
	asid uint64
	generatorState
}

// set makes s a copy of src that shares no memory with it.
func (s *generatorState) set(src *generatorState) {
	stack := s.stack
	*s = *src
	s.stack = append(stack[:0], src.stack...)
}

// SnapshotState implements Snapshotter.
func (g *Generator) SnapshotState() any {
	s := &generatorSnapshot{asid: g.prog.ASID}
	s.set(&g.generatorState)
	return s
}

// RestoreState implements Snapshotter. The target must walk the same
// program.
func (g *Generator) RestoreState(state any) error {
	s, ok := state.(*generatorSnapshot)
	if !ok {
		return fmt.Errorf("workload: generator restore from %T", state)
	}
	if s.asid != g.prog.ASID {
		return fmt.Errorf("workload: generator restore across programs (ASID %d into %d)", s.asid, g.prog.ASID)
	}
	g.set(&s.generatorState)
	return nil
}

// traceReplaySnapshot is a replayer's cursor plus the chunk count of
// the container it replays.
type traceReplaySnapshot struct {
	chunks int
	replayState
}

// SnapshotState implements Snapshotter.
func (r *traceReplay) SnapshotState() any {
	return &traceReplaySnapshot{chunks: r.tr.NumChunks(), replayState: r.replayState}
}

// RestoreState implements Snapshotter: it retires the in-flight decode,
// re-decodes the snapshot's current chunk synchronously, and restarts
// the one-chunk-ahead pipeline, leaving the replayer exactly where the
// snapshot was taken.
func (r *traceReplay) RestoreState(state any) error {
	s, ok := state.(*traceReplaySnapshot)
	if !ok {
		return fmt.Errorf("workload: trace replay restore from %T", state)
	}
	if s.chunks != r.tr.NumChunks() || s.curIdx >= s.chunks {
		return fmt.Errorf("workload: trace replay restore across containers (%d chunks into %d)", s.chunks, r.tr.NumChunks())
	}
	// Drain the outstanding prefetch so the channel slot is free for the
	// restarted pipeline (a decode error here is irrelevant — the chunk
	// is being discarded).
	<-r.next
	blocks, err := r.tr.DecodeChunk(s.curIdx)
	if err != nil {
		return fmt.Errorf("workload: trace replay restore chunk %d: %w", s.curIdx, err)
	}
	r.cur, r.replayState = blocks, s.replayState
	n := s.curIdx + 1
	if n >= r.tr.NumChunks() {
		n = 0
	}
	r.prefetch(n)
	return nil
}
