package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/prefetch"
	"repro/internal/stats"
)

// Row is one artifact line: a grid point with its raw metrics and the
// derived comparisons (speedup and miss-rate reduction vs. the point's
// normalisation-group baseline).
type Row struct {
	Point
	IPC float64 `json:"ipc"`
	// Speedup is IPC over the group baseline's IPC (1.0 = baseline;
	// 0 when the group has no finished baseline point).
	Speedup         float64 `json:"speedup,omitempty"`
	L1IMissPerInstr float64 `json:"l1i_miss_per_instr"`
	L2IMissPerInstr float64 `json:"l2i_miss_per_instr"`
	// L1IMissReduction / L2IMissReduction are 1 − miss/baselineMiss
	// (1.0 = all misses eliminated, 0 = none, negative = inflation).
	L1IMissReduction float64 `json:"l1i_miss_reduction,omitempty"`
	L2IMissReduction float64 `json:"l2i_miss_reduction,omitempty"`
	PrefetchAccuracy float64 `json:"prefetch_accuracy"`
	PrefetchIssued   uint64  `json:"prefetch_issued,omitempty"`
	PrefetchUseful   uint64  `json:"prefetch_useful,omitempty"`
	OffChipTransfers uint64  `json:"off_chip_transfers"`
	// Components carries per-component attribution for composite
	// (hybrid:*) points; the issued/useful counts sum to the point's
	// PrefetchIssued/PrefetchUseful totals.
	Components []ComponentSummary `json:"components,omitempty"`
	Recovered  bool               `json:"recovered,omitempty"`
}

// ParetoPoint is one table size on the storage-vs-performance frontier:
// the discontinuity table's storage cost in bits against the geometric
// mean speedup across every workload group that ran at that size.
type ParetoPoint struct {
	TableEntries int     `json:"table_entries"`
	TableBits    int     `json:"table_bits"`
	Speedup      float64 `json:"speedup"`
	// OnFront marks sizes no cheaper size matches or beats.
	OnFront bool `json:"on_front"`
}

// Artifact is the machine-readable export of a completed sweep.
type Artifact struct {
	Name   string        `json:"name,omitempty"`
	Spec   Spec          `json:"spec"`
	Points []Row         `json:"points"`
	Pareto []ParetoPoint `json:"pareto,omitempty"`
	// Recovered / Simulated echo the outcome's work split.
	Recovered int `json:"recovered"`
	Simulated int `json:"simulated"`
}

// Artifact derives the exportable artifact from a completed sweep:
// per-point rows normalised against their group baselines, plus the
// pareto front over table-size-bits vs. speedup when the sweep
// explored the discontinuity table-size axis.
func (o *Outcome) Artifact() *Artifact {
	// Index the baselines by normalisation group.
	base := make(map[string]PointResult)
	for _, r := range o.Points {
		if r.Point.Baseline {
			base[r.Point.groupKey()] = r
		}
	}
	a := &Artifact{Name: o.Spec.Name, Spec: o.Spec,
		Recovered: o.Recovered, Simulated: o.Simulated}
	for _, r := range o.Points {
		row := Row{
			Point:            r.Point,
			IPC:              r.IPC,
			L1IMissPerInstr:  r.L1IMissPerInstr,
			L2IMissPerInstr:  r.L2IMissPerInstr,
			PrefetchAccuracy: r.PrefetchAccuracy,
			PrefetchIssued:   r.PrefetchIssued,
			PrefetchUseful:   r.PrefetchUseful,
			OffChipTransfers: r.OffChipTransfers,
			Components:       r.Components,
			Recovered:        r.Recovered,
		}
		if b, ok := base[r.Point.groupKey()]; ok && b.IPC > 0 {
			row.Speedup = r.IPC / b.IPC
			if b.L1IMissPerInstr > 0 {
				row.L1IMissReduction = 1 - r.L1IMissPerInstr/b.L1IMissPerInstr
			}
			if b.L2IMissPerInstr > 0 {
				row.L2IMissReduction = 1 - r.L2IMissPerInstr/b.L2IMissPerInstr
			}
		}
		a.Points = append(a.Points, row)
	}
	a.Pareto = paretoFront(a.Points)
	return a
}

// paretoFront aggregates the discontinuity table-size axis: geometric
// mean speedup per table size across all groups, each size costed in
// storage bits, with the non-dominated sizes marked. Returns nil when
// the sweep never varied the table size.
func paretoFront(rows []Row) []ParetoPoint {
	type acc struct {
		logSum float64
		n      int
	}
	bySize := make(map[int]*acc)
	for _, r := range rows {
		if r.TableEntries <= 0 || !tableScheme(r.Scheme) || r.Speedup <= 0 {
			continue
		}
		a := bySize[r.TableEntries]
		if a == nil {
			a = &acc{}
			bySize[r.TableEntries] = a
		}
		a.logSum += math.Log(r.Speedup)
		a.n++
	}
	if len(bySize) == 0 {
		return nil
	}
	out := make([]ParetoPoint, 0, len(bySize))
	for size, a := range bySize {
		cfg := prefetch.DefaultDiscontinuityConfig()
		cfg.TableEntries = size
		out = append(out, ParetoPoint{
			TableEntries: size,
			TableBits:    cfg.TableBits(),
			Speedup:      math.Exp(a.logSum / float64(a.n)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TableBits < out[j].TableBits })
	best := 0.0
	for i := range out {
		if out[i].Speedup > best {
			out[i].OnFront = true
			best = out[i].Speedup
		}
	}
	return out
}

// fmtGeom renders a geometry cell.
func fmtGeom(g *Geometry) string {
	if g == nil {
		return "default"
	}
	return g.String()
}

// fmtComponents renders the per-component attribution cell as
// "name=issued/useful" terms joined with '+' (comma-free so the cell
// survives CSV round-trips); all-zero rows are elided for readability,
// the JSON artifact keeps them.
func fmtComponents(cs []ComponentSummary) string {
	var parts []string
	for _, c := range cs {
		if c.Issued == 0 && c.Useful == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d/%d", c.Name, c.Issued, c.Useful))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "+")
}

// Table renders the per-point rows as a stats table (grid order).
func (a *Artifact) Table() *stats.Table {
	title := a.Name
	if title == "" {
		title = "design-space sweep"
	}
	t := stats.NewTable(title,
		"workload", "cores", "scheme", "bypass", "table", "ahead", "l1i", "l2",
		"ipc", "speedup", "l1i miss/instr", "l2i miss/instr",
		"l1i reduction", "l2i reduction", "accuracy", "components")
	for _, r := range a.Points {
		t.AddRow(
			r.Workload,
			fmt.Sprintf("%d", r.Cores),
			r.Scheme,
			fmt.Sprintf("%v", r.Bypass),
			fmt.Sprintf("%d", r.TableEntries),
			fmt.Sprintf("%d", r.PrefetchAhead),
			fmtGeom(r.L1I),
			fmtGeom(r.L2),
			fmt.Sprintf("%.4f", r.IPC),
			fmt.Sprintf("%.4f", r.Speedup),
			fmt.Sprintf("%.6f", r.L1IMissPerInstr),
			fmt.Sprintf("%.6f", r.L2IMissPerInstr),
			fmt.Sprintf("%.4f", r.L1IMissReduction),
			fmt.Sprintf("%.4f", r.L2IMissReduction),
			fmt.Sprintf("%.4f", r.PrefetchAccuracy),
			fmtComponents(r.Components),
		)
	}
	return t
}

// ParetoTable renders the table-size frontier; nil when the sweep has
// no table-size axis.
func (a *Artifact) ParetoTable() *stats.Table {
	if len(a.Pareto) == 0 {
		return nil
	}
	t := stats.NewTable("pareto front: table-size bits vs speedup",
		"table entries", "table bits", "geomean speedup", "on front")
	for _, p := range a.Pareto {
		t.AddRow(
			fmt.Sprintf("%d", p.TableEntries),
			fmt.Sprintf("%d", p.TableBits),
			fmt.Sprintf("%.4f", p.Speedup),
			fmt.Sprintf("%v", p.OnFront),
		)
	}
	return t
}

// CSV renders the per-point rows as CSV bytes.
func (a *Artifact) CSV() []byte {
	return []byte(csvOf(a.Table()))
}

// ParetoCSV renders the frontier as CSV bytes; nil when absent.
func (a *Artifact) ParetoCSV() []byte {
	t := a.ParetoTable()
	if t == nil {
		return nil
	}
	return []byte(csvOf(t))
}

// JSON renders the whole artifact as indented JSON.
func (a *Artifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// Files renders the artifact's downloadable file set: results.json,
// results.csv and, when the sweep has a frontier, pareto.csv. A
// results.json that fails to marshal is left out.
func (a *Artifact) Files() map[string][]byte {
	files := map[string][]byte{"results.csv": a.CSV()}
	if data, err := a.JSON(); err == nil {
		files["results.json"] = data
	}
	if p := a.ParetoCSV(); p != nil {
		files["pareto.csv"] = p
	}
	return files
}

var artifactContentTypes = map[string]string{
	"results.json": "application/json",
	"results.csv":  "text/csv; charset=utf-8",
	"pareto.csv":   "text/csv; charset=utf-8",
}

// ArtifactContentType returns the media type to serve an artifact file
// with: the file's own type for the names Files produces,
// application/octet-stream for any other.
func ArtifactContentType(name string) string {
	if ct, ok := artifactContentTypes[name]; ok {
		return ct
	}
	return "application/octet-stream"
}

func csvOf(t *stats.Table) string {
	var sb strings.Builder
	t.CSV(&sb)
	return sb.String()
}
