package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/sim"
)

// Store is a content-addressed on-disk result cache: one JSON file per
// canonical spec key, named by the SHA-256 of the key. Writes are
// atomic (temp file + rename), so a crashed daemon never leaves a
// half-written entry, and restarts serve completed sweeps from disk.
type Store struct {
	dir string
}

// StoredResult is the persisted record of one completed simulation.
type StoredResult struct {
	// Key is the canonical spec key (also the dedup identity); kept in
	// the file so entries are self-describing and hash collisions are
	// detectable.
	Key string `json:"key"`
	// Spec is the wire spec that produced the result.
	Spec JobSpec `json:"spec"`
	// Result is the full simulation result.
	Result sim.Result `json:"result"`
	// CreatedAt records when the simulation finished.
	CreatedAt time.Time `json:"created_at"`
	// ElapsedMS is how long the simulation took, for capacity planning.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// NewStore opens (creating if needed) a result store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: result store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, contentAddress(key)+".json")
}

// Get loads the entry for key. The second return is false when no
// entry exists; corrupt or mismatching entries are treated as misses.
func (s *Store) Get(key string) (StoredResult, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return StoredResult{}, false
	}
	var e StoredResult
	if json.Unmarshal(data, &e) != nil || e.Key != key {
		return StoredResult{}, false
	}
	return e, true
}

// Put persists the entry atomically.
func (s *Store) Put(e StoredResult) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return atomicfile.Write(s.path(e.Key), data)
}

// Len counts stored entries (diagnostics and tests).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
