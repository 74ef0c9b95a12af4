package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a module of the simulator, recorded by
// the benchmark around the call (never inside the program).
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 at the top.
	Parent int `json:"parent"`
	// Op is the operation the span belongs to, -1 outside operations.
	Op int `json:"op"`
	// Count is the number of work items the span covered (blocks,
	// fetches, instructions, puts), 0 when it timed one call.
	Count float64 `json:"count,omitempty"`
}

// tracer keeps spans in memory; it is used from one goroutine. A nil
// or disabled tracer records nothing, so untraced runs pay one branch
// per call site.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil || !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span h, recording how many items it covered.
func (t *tracer) end(h int, count float64) {
	if h < 0 {
		return
	}
	t.spans[h].End = int64(time.Since(t.t0))
	t.spans[h].Count = count
}

// durations returns the durations of the closed spans called name,
// optionally divided by their item counts.
func (t *tracer) durations(name string, perItem bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		d := float64(s.End - s.Start)
		if perItem && s.Count > 0 {
			d /= s.Count
		}
		out = append(out, d)
	}
	return out
}

// selfTimes sums, per span name, the time not covered by child spans.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// write stores every span plus per-name self times as JSON.
func (t *tracer) write(path string) error {
	names := make([]string, 0)
	self := t.selfTimes()
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"self_s"`
	}
	rows := make([]selfRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, selfRow{n, self[n]})
	}
	data, err := json.MarshalIndent(struct {
		Self  []selfRow `json:"self_times"`
		Spans []span    `json:"spans"`
	}{rows, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the middle value (mean of the middle two), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
