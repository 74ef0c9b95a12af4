package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the short-mode test
// checks the printed metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestShortModePrintsEveryMetric runs every workload of BENCHMARK.json
// at a tiny budget, untraced and traced, and requires exactly the
// metrics BENCHMARK.json names, each with its unit, and a correct run
// with no failed operation.
func TestShortModePrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadFns) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadFns))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			opts := options{workload: w.Name, seed: 7, seconds: 1, trace: traced, short: true, out: t.TempDir()}
			res, err := run(context.Background(), opts, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestTracingLeavesSimulationAlone runs each workload untraced and
// traced on one seed: the simulated statistics and counts must be
// identical.
func TestTracingLeavesSimulationAlone(t *testing.T) {
	for name, fn := range workloadFns {
		var counts [2]map[string]metric
		for i, traced := range []bool{false, true} {
			b, err := newBench(options{workload: name, seed: 3, seconds: 1, trace: traced, short: true, out: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			err = fn(context.Background(), b)
			b.cleanup()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(b.problems) > 0 {
				t.Fatalf("%s trace=%v: checks failed: %v", name, traced, b.problems)
			}
			counts[i] = b.counts
		}
		if !reflect.DeepEqual(counts[0], counts[1]) {
			t.Errorf("%s: simulated statistics differ between untraced and traced runs:\n%v\n%v", name, counts[0], counts[1])
		}
	}
}

// BenchmarkSpan measures what tracing adds per recorded span.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer(true)
	for i := 0; i < b.N; i++ {
		tr.end(tr.begin("op:bench", -1, i), 0)
	}
}
