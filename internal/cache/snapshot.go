package cache

import "fmt"

// Snapshot is a deep copy of a cache's dynamic state. A snapshot is
// immutable once taken: Restore copies out of it, so one snapshot can
// seed any number of machines.
type Snapshot struct {
	cfg Config
	state
}

// set makes s a copy of src that shares no memory with it.
func (s *state) set(src *state) {
	lines, meta, fill := s.lines, s.meta, s.fill
	*s = *src
	s.lines = append(lines[:0], src.lines...)
	s.meta = append(meta[:0], src.meta...)
	s.fill = append(fill[:0], src.fill...)
}

// Snapshot captures the cache's current state.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{cfg: c.cfg}
	s.set(&c.state)
	return s
}

// Restore overwrites the cache's state with a copy of the snapshot's.
// The target must have the same geometry (the snapshot is addressed by
// set and way); the replacement policy may differ — policy is behaviour,
// not state. The snapshot itself is left untouched.
func (c *Cache) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("cache: restore from nil snapshot")
	}
	if s.cfg.SizeBytes != c.cfg.SizeBytes || s.cfg.Assoc != c.cfg.Assoc || s.cfg.LineBytes != c.cfg.LineBytes {
		return fmt.Errorf("cache: restore geometry mismatch: snapshot %+v into %+v", s.cfg, c.cfg)
	}
	c.set(&s.state)
	return nil
}
