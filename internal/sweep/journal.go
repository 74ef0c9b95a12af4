package sweep

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/sim"
)

// Journal is the sweep's checkpoint store: one JSON file per completed
// point, named by the SHA-256 of the point's canonical simulation key
// (content-addressed, like the service result store). Writes are
// atomic (temp file + rename), so an interrupted sweep never leaves a
// half-written checkpoint and a restarted sweep resumes from exactly
// the set of points that finished.
type Journal struct {
	dir string
}

// ComponentSummary is the per-component attribution row recorded for
// composite (hybrid:*) scheme points. Issued/Useful sum to the point's
// PrefetchIssued/PrefetchUseful totals across all components, including
// the composite's trailing "unattributed" bucket.
type ComponentSummary struct {
	Name     string  `json:"name"`
	Issued   uint64  `json:"issued"`
	Useful   uint64  `json:"useful"`
	Accuracy float64 `json:"accuracy"`
}

// PointResult is the persisted outcome of one grid point: the point,
// its canonical key, and the summary metrics the artifact layer
// aggregates. It deliberately stores the summary rather than the full
// sim.Result so thousand-point journals stay small.
type PointResult struct {
	// Key is the canonical simulation key (dedup identity); kept in
	// the file so entries are self-describing and collisions are
	// detectable.
	Key   string `json:"key"`
	Point Point  `json:"point"`

	IPC              float64 `json:"ipc"`
	L1IMissPerInstr  float64 `json:"l1i_miss_per_instr"`
	L2IMissPerInstr  float64 `json:"l2i_miss_per_instr"`
	PrefetchAccuracy float64 `json:"prefetch_accuracy"`
	PrefetchIssued   uint64  `json:"prefetch_issued,omitempty"`
	PrefetchUseful   uint64  `json:"prefetch_useful,omitempty"`
	Instructions     uint64  `json:"instructions"`
	Cycles           uint64  `json:"cycles"`
	OffChipTransfers uint64  `json:"off_chip_transfers"`

	// Components carries per-component attribution for composite
	// (hybrid:*) scheme points; empty for single schemes.
	Components []ComponentSummary `json:"components,omitempty"`

	CreatedAt time.Time `json:"created_at"`
	ElapsedMS int64     `json:"elapsed_ms"`

	// Recovered marks results replayed from the journal on resume
	// rather than simulated in this run. Not persisted.
	Recovered bool `json:"-"`
}

// NewPointResult summarises one finished simulation into the journal's
// persisted form. Local runners and remote distributed workers build
// their results through this one constructor so journal entries are
// identical regardless of where the point ran.
func NewPointResult(p Point, key string, simRes sim.Result, elapsed time.Duration) PointResult {
	total := simRes.Total
	res := PointResult{
		Key:              key,
		Point:            p,
		IPC:              total.IPC(),
		L1IMissPerInstr:  total.L1I.PerInstr(total.Instructions),
		L2IMissPerInstr:  total.L2I.PerInstr(total.Instructions),
		PrefetchAccuracy: total.Prefetch.Accuracy(),
		PrefetchIssued:   total.Prefetch.Issued,
		PrefetchUseful:   total.Prefetch.Useful,
		Instructions:     total.Instructions,
		Cycles:           total.Cycles,
		OffChipTransfers: simRes.OffChipTransfers,
		CreatedAt:        time.Now().UTC(),
		ElapsedMS:        elapsed.Milliseconds(),
	}
	for _, c := range total.Components {
		res.Components = append(res.Components, ComponentSummary{
			Name:     c.Name,
			Issued:   c.Issued,
			Useful:   c.Useful,
			Accuracy: c.Accuracy(),
		})
	}
	return res
}

// OpenJournal opens (creating if needed) a journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

func (j *Journal) path(key string) string {
	return filepath.Join(j.dir, ContentAddress(key)+".json")
}

// Get loads the checkpoint for key. The second return is false when no
// checkpoint exists; corrupt or mismatching entries read as misses (the
// point is simply re-simulated).
func (j *Journal) Get(key string) (PointResult, bool) {
	data, err := os.ReadFile(j.path(key))
	if err != nil {
		return PointResult{}, false
	}
	var r PointResult
	if json.Unmarshal(data, &r) != nil || r.Key != key {
		return PointResult{}, false
	}
	r.Recovered = true
	return r, true
}

// Put checkpoints one completed point atomically.
func (j *Journal) Put(r PointResult) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return atomicfile.Write(j.path(r.Key), data)
}

// Len counts checkpointed points (progress reporting and tests).
func (j *Journal) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(j.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
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
