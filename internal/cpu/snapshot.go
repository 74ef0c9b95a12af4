package cpu

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Snapshot is a deep copy of one core's dynamic state: its own state,
// the private caches and predictors, the front-end, the statistics
// record, and the workload source's stream cursor. A snapshot is
// pristine — restoring copies FROM it, so the same snapshot can seed
// any number of cores.
type Snapshot struct {
	l1d  *cache.Snapshot
	bp   *bpred.Snapshot
	tlbs *tlb.HierarchySnapshot
	fe   *core.FrontEndSnapshot
	src  any
	cs   stats.CoreStats
	coreState
}

// set makes s a copy of src that shares no memory with it.
func (s *coreState) set(src *coreState) {
	memOps := s.blk.MemOps
	*s = *src
	s.blk.MemOps = append(memOps[:0], src.blk.MemOps...)
}

// copyStats makes dst a copy of src that shares no memory with it. The
// component rows get a new array: a record handed out earlier may still
// hold the old one.
func copyStats(dst, src *stats.CoreStats) {
	*dst = *src
	dst.Components = append([]stats.ComponentPrefetchStats(nil), src.Components...)
}

// Snapshot captures the core's current state. It fails when the
// workload source cannot be snapshotted.
func (c *Core) Snapshot() (*Snapshot, error) {
	srcSnap, ok := c.src.(workload.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("cpu: workload source %T does not support snapshots", c.src)
	}
	s := &Snapshot{
		l1d:  c.l1d.Snapshot(),
		bp:   c.bp.Snapshot(),
		tlbs: c.tlbs.Snapshot(),
		fe:   c.fe.Snapshot(),
		src:  srcSnap.SnapshotState(),
	}
	copyStats(&s.cs, c.cs)
	s.set(&c.coreState)
	return s, nil
}

// Restore overwrites the core's state with a copy of the snapshot's.
// The private cache/predictor geometries must match, and the workload
// source must be equivalent to the snapshot source's (same program or
// trace, same seed lineage).
func (c *Core) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("cpu: restore core from nil snapshot")
	}
	srcSnap, ok := c.src.(workload.Snapshotter)
	if !ok {
		return fmt.Errorf("cpu: workload source %T does not support snapshots", c.src)
	}
	if err := srcSnap.RestoreState(s.src); err != nil {
		return err
	}
	if err := c.l1d.Restore(s.l1d); err != nil {
		return err
	}
	if err := c.bp.Restore(s.bp); err != nil {
		return err
	}
	if err := c.tlbs.Restore(s.tlbs); err != nil {
		return err
	}
	if err := c.fe.Restore(s.fe); err != nil {
		return err
	}
	copyStats(c.cs, &s.cs)
	c.set(&s.coreState)
	return nil
}
