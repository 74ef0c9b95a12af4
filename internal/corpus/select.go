package corpus

// Fingerprint-indexed selection: `corpus:select(footprint>4096,cti>0.1)`
// style expressions filter the store by manifest fingerprints, so a
// sweep can pick workloads by property ("everything with a DB2-sized
// footprint and lots of discontinuities") instead of by name.
//
// The index (`<dir>/index.json`) caches id -> fingerprint so queries
// over a large corpus don't re-read every manifest; it is updated on
// ingest and rebuilt transparently whenever its id set stops matching
// the manifests on disk (deletes, replication, another process).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/isa"
)

const indexFile = "index.json"

// indexEntry is the queryable summary of one manifest.
type indexEntry struct {
	Name        string      `json:"name"`
	Fingerprint Fingerprint `json:"fingerprint"`
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, indexFile) }

// manifestIDs lists the ids with a manifest on disk.
func (s *Store) manifestIDs() ([]string, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, p := range names {
		id := strings.TrimSuffix(filepath.Base(p), ".json")
		if validID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// loadIndex returns a fresh id -> entry map, rebuilding and rewriting
// the on-disk index if its id set disagrees with the manifests.
func (s *Store) loadIndex() (map[string]indexEntry, error) {
	ids, err := s.manifestIDs()
	if err != nil {
		return nil, err
	}
	idx := make(map[string]indexEntry)
	if data, err := os.ReadFile(s.indexPath()); err == nil {
		_ = json.Unmarshal(data, &idx) // stale or corrupt -> rebuild below
	}
	fresh := len(idx) == len(ids)
	if fresh {
		for _, id := range ids {
			if _, ok := idx[id]; !ok {
				fresh = false
				break
			}
		}
	}
	if fresh {
		return idx, nil
	}
	idx = make(map[string]indexEntry, len(ids))
	for _, id := range ids {
		m, err := s.Get(id)
		if err != nil {
			return nil, err
		}
		idx[id] = indexEntry{Name: m.Name, Fingerprint: m.Fingerprint}
	}
	s.writeIndex(idx)
	return idx, nil
}

// indexAdd folds one freshly ingested manifest into the index
// (best-effort; a rebuild heals any miss).
func (s *Store) indexAdd(m Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := make(map[string]indexEntry)
	if data, err := os.ReadFile(s.indexPath()); err == nil {
		_ = json.Unmarshal(data, &idx)
	}
	idx[m.ID] = indexEntry{Name: m.Name, Fingerprint: m.Fingerprint}
	s.writeIndex(idx)
}

func (s *Store) writeIndex(idx map[string]indexEntry) {
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return
	}
	_ = atomicfile.Write(s.indexPath(), append(data, '\n'))
}

// selTerm is one `field op value` clause of a selector.
type selTerm struct {
	field string
	op    string
	num   float64
	str   string
}

// selector fields, each reducing an index entry to a number (or, for
// name, a string).
var selFields = map[string]func(indexEntry) float64{
	"footprint":     func(e indexEntry) float64 { return float64(e.Fingerprint.FootprintLines) },
	"instructions":  func(e indexEntry) float64 { return float64(e.Fingerprint.Instructions) },
	"blocks":        func(e indexEntry) float64 { return float64(e.Fingerprint.Blocks) },
	"triggers":      func(e indexEntry) float64 { return float64(e.Fingerprint.DistinctTrigger) },
	"single_target": func(e indexEntry) float64 { return e.Fingerprint.SingleTargetPct },
	"cti":           func(e indexEntry) float64 { return e.Fingerprint.FlowChangePct },
	"calls":         func(e indexEntry) float64 { return e.Fingerprint.CTIMix[isa.CTICall] },
	"miss":          func(e indexEntry) float64 { return e.Fingerprint.MissBandPct },
	// Entries captured before the co-design PR carry zero for these
	// two, so `itlb_mpki>0` doubles as an "analysed recently" filter.
	"itlb_mpki":       func(e indexEntry) float64 { return e.Fingerprint.ITLBMpki },
	"footprint_bytes": func(e indexEntry) float64 { return float64(e.Fingerprint.FootprintBytes) },
}

// ParseSelector parses a comma-separated list of `field op value`
// terms. Numeric fields take >, >=, <, <=, =, !=; the name field
// takes = and != only. An empty expression selects everything.
func ParseSelector(expr string) ([]selTerm, error) {
	var terms []selTerm
	for _, part := range strings.Split(expr, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, at := "", -1
		for _, cand := range []string{">=", "<=", "!=", ">", "<", "="} {
			if i := strings.Index(part, cand); i >= 0 && (at < 0 || i < at) {
				op, at = cand, i
			}
		}
		if at <= 0 {
			return nil, fmt.Errorf("corpus: selector term %q: want field<op>value", part)
		}
		field := strings.TrimSpace(part[:at])
		val := strings.TrimSpace(part[at+len(op):])
		if val == "" {
			return nil, fmt.Errorf("corpus: selector term %q: missing value", part)
		}
		t := selTerm{field: field, op: op}
		if field == "name" {
			if op != "=" && op != "!=" {
				return nil, fmt.Errorf("corpus: selector term %q: name supports = and != only", part)
			}
			t.str = val
		} else if _, ok := selFields[field]; ok {
			n, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("corpus: selector term %q: bad number %q", part, val)
			}
			t.num = n
		} else {
			known := make([]string, 0, len(selFields)+1)
			for f := range selFields {
				known = append(known, f)
			}
			known = append(known, "name")
			sort.Strings(known)
			return nil, fmt.Errorf("corpus: selector term %q: unknown field (have %s)",
				part, strings.Join(known, ", "))
		}
		terms = append(terms, t)
	}
	return terms, nil
}

func (t selTerm) match(e indexEntry) bool {
	if t.field == "name" {
		if t.op == "=" {
			return e.Name == t.str
		}
		return e.Name != t.str
	}
	v := selFields[t.field](e)
	switch t.op {
	case ">":
		return v > t.num
	case ">=":
		return v >= t.num
	case "<":
		return v < t.num
	case "<=":
		return v <= t.num
	case "=":
		return v == t.num
	case "!=":
		return v != t.num
	}
	return false
}

// Select returns the ids matching expr in sorted order — the
// deterministic expansion a `corpus:select(...)` sweep axis relies
// on: same corpus contents, same grid.
func (s *Store) Select(expr string) ([]string, error) {
	terms, err := ParseSelector(expr)
	if err != nil {
		return nil, err
	}
	idx, err := s.loadIndex()
	if err != nil {
		return nil, err
	}
	var ids []string
	for id, e := range idx {
		ok := true
		for _, t := range terms {
			if !t.match(e) {
				ok = false
				break
			}
		}
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}
