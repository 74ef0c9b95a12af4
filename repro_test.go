package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

func TestNewMachineDefaults(t *testing.T) {
	m, err := NewMachine(MachineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(200_000)
	got := m.Metrics()
	if got.Instructions < 200_000 {
		t.Fatalf("instructions = %d", got.Instructions)
	}
	if got.IPC <= 0 || got.IPC > 3 {
		t.Fatalf("IPC = %v implausible", got.IPC)
	}
	if got.L1IMissPerInstr <= 0 {
		t.Fatal("no instruction misses on a commercial workload")
	}
}

func TestNewMachineRejectsBadConfig(t *testing.T) {
	if _, err := NewMachine(MachineConfig{Cores: -1}); err == nil {
		t.Fatal("negative cores accepted")
	}
	if _, err := NewMachine(MachineConfig{Workloads: []string{"nope"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := NewMachine(MachineConfig{Prefetcher: "bogus"}); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	if _, err := NewMachine(MachineConfig{L1I: CacheGeometry{SizeBytes: 1000, Assoc: 3, LineBytes: 48}}); err == nil {
		t.Fatal("invalid cache geometry accepted")
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() Metrics {
		m, err := NewMachine(MachineConfig{Workloads: []string{"Web"}, Prefetcher: PrefetcherDiscontinuity, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		m.Run(150_000)
		return m.Metrics()
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.PrefetchIssued != b.PrefetchIssued {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestPrefetchingReducesMisses(t *testing.T) {
	miss := func(pf string) float64 {
		m, err := NewMachine(MachineConfig{Workloads: []string{"DB"}, Prefetcher: pf})
		if err != nil {
			t.Fatal(err)
		}
		m.Run(400_000)
		m.ResetStats()
		m.Run(400_000)
		return m.Metrics().L1IMissPerInstr
	}
	base := miss(PrefetcherNone)
	disc := miss(PrefetcherDiscontinuity)
	if disc >= base*0.7 {
		t.Fatalf("discontinuity prefetching barely helped: %v -> %v", base, disc)
	}
}

func TestCMPMachine(t *testing.T) {
	m, err := NewMachine(MachineConfig{
		Cores:      4,
		Workloads:  []string{"DB", "TPC-W", "jApp", "Web"},
		Prefetcher: PrefetcherNext4Tagged,
		BypassL2:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100_000)
	got := m.Metrics()
	if got.Instructions < 4*100_000 {
		t.Fatalf("CMP retired %d instructions", got.Instructions)
	}
	for i := 0; i < 4; i++ {
		cm, err := m.CoreMetrics(i)
		if err != nil {
			t.Fatal(err)
		}
		if cm.Instructions < 100_000 {
			t.Fatalf("core %d retired %d", i, cm.Instructions)
		}
	}
	if _, err := m.CoreMetrics(4); err == nil {
		t.Fatal("out-of-range core accepted")
	}
}

func TestMetricsBreakdownSumsToOne(t *testing.T) {
	m, err := NewMachine(MachineConfig{Workloads: []string{"jApp"}})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(300_000)
	got := m.Metrics()
	sum := 0.0
	for _, f := range got.MissBreakdown {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if got.MissBreakdown["sequential"] < 0.2 {
		t.Fatalf("sequential share = %v, implausibly low", got.MissBreakdown["sequential"])
	}
}

func TestDiscontinuityTableOverride(t *testing.T) {
	m, err := NewMachine(MachineConfig{
		Workloads:                 []string{"Web"},
		Prefetcher:                PrefetcherDiscontinuity,
		DiscontinuityTableEntries: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(150_000)
	if m.Metrics().PrefetchIssued == 0 {
		t.Fatal("overridden prefetcher issued nothing")
	}
}

func TestWorkloads(t *testing.T) {
	ws := Workloads()
	if len(ws) != 4 {
		t.Fatalf("workloads = %d", len(ws))
	}
	for _, w := range ws {
		if w.Functions < 100 || w.CodeBytes < 1<<20 {
			t.Errorf("%s: implausible image (%d funcs, %d bytes)", w.Name, w.Functions, w.CodeBytes)
		}
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
	}
	names := WorkloadNames()
	if len(names) != 4 || names[0] != "DB" {
		t.Fatalf("names = %v", names)
	}
}

func TestTraceRoundTripViaFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordTrace(&buf, "Web", 7, 5000); err != nil {
		t.Fatal(err)
	}
	st, err := ReadTraceStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workload != "Web" || st.Blocks != 5000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Instructions < 5000 || st.MemOps == 0 {
		t.Fatalf("stats = %+v", st)
	}
	mixSum := 0.0
	for _, f := range st.CTIMix {
		mixSum += f
	}
	if mixSum < 0.999 || mixSum > 1.001 {
		t.Fatalf("CTI mix sums to %v", mixSum)
	}
}

func TestRecordTraceUnknownApp(t *testing.T) {
	if err := RecordTrace(&bytes.Buffer{}, "nope", 1, 10); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestReadTraceStatsRejectsGarbage(t *testing.T) {
	if _, err := ReadTraceStats(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestExperimentsSmallFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	e := NewExperiments(ExperimentConfig{WarmInstrs: 100_000, MeasureInstrs: 200_000})
	fig, ok := e.Figure("3")
	if !ok {
		t.Fatal("figure 3 missing")
	}
	tables := fig.Run()
	if len(tables) != 3 {
		t.Fatalf("figure 3 produced %d tables", len(tables))
	}
	for _, tb := range tables {
		if tb.Title() == "" || !strings.Contains(tb.String(), "sequential") {
			t.Fatalf("bad table:\n%s", tb.String())
		}
		var sb strings.Builder
		tb.WriteCSV(&sb)
		if !strings.Contains(sb.String(), ",") {
			t.Fatal("CSV output empty")
		}
	}
}

func TestExperimentsListing(t *testing.T) {
	e := NewExperiments(ExperimentConfig{})
	figs := e.Figures()
	if len(figs) != 10 {
		t.Fatalf("figures = %d, want 10", len(figs))
	}
	abls := e.Ablations()
	if len(abls) != 10 {
		t.Fatalf("ablations = %d, want 4", len(abls))
	}
	if _, ok := e.Figure("a1"); !ok {
		t.Fatal("ablation lookup failed")
	}
	if _, ok := e.Figure("zz"); ok {
		t.Fatal("bogus figure found")
	}
}

func TestMachineFromTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordTrace(&buf, "Web", 3, 60_000); err != nil {
		t.Fatal(err)
	}
	m, err := NewMachineFromTrace(MachineConfig{Prefetcher: PrefetcherDiscontinuity, BypassL2: true},
		[][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(200_000)
	g := m.Metrics()
	if g.Instructions < 200_000 || g.IPC <= 0 {
		t.Fatalf("trace-driven run metrics: %+v", g)
	}
	if g.PrefetchIssued == 0 {
		t.Fatal("prefetcher idle on trace replay")
	}
	// Trace-driven and generator-driven runs over the same stream should
	// see identical fetch behaviour (same block sequence).
	m2, err := NewMachine(MachineConfig{Workloads: []string{"Web"}, Seed: 3,
		Prefetcher: PrefetcherDiscontinuity, BypassL2: true})
	if err != nil {
		t.Fatal(err)
	}
	m2.Run(60_000) // within the recorded window, streams are identical
	g2 := m2.Metrics()
	mTrc, err := NewMachineFromTrace(MachineConfig{Prefetcher: PrefetcherDiscontinuity, BypassL2: true},
		[][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	mTrc.Run(60_000)
	gTrc := mTrc.Metrics()
	if gTrc.Cycles != g2.Cycles || gTrc.Instructions != g2.Instructions {
		t.Fatalf("trace replay diverges from generator: %d/%d vs %d/%d cycles/instrs",
			gTrc.Cycles, gTrc.Instructions, g2.Cycles, g2.Instructions)
	}
}

func TestMachineFromTraceRejectsBadInput(t *testing.T) {
	if _, err := NewMachineFromTrace(MachineConfig{}, [][]byte{[]byte("junk")}); err == nil {
		t.Fatal("garbage trace accepted")
	}
	if _, err := NewMachineFromTrace(MachineConfig{Cores: 2}, [][]byte{{}}); err == nil {
		t.Fatal("trace/core mismatch accepted")
	}
}

func TestAnalyzeWorkload(t *testing.T) {
	var sb strings.Builder
	if err := AnalyzeWorkload(&sb, "Web", 1, 50_000); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"workload Web", "footprint", "single-target"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis missing %q:\n%s", want, out)
		}
	}
	if err := AnalyzeWorkload(&sb, "nope", 1, 10); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestAnalyzeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordTrace(&buf, "DB", 2, 20_000); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := AnalyzeTrace(&sb, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workload DB (recorded trace, IPFTRC02)", "container size", "bits/block"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}
	if err := AnalyzeTrace(&sb, strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestGoldenTraces freezes the byte-exact output of the workload
// generators and the record encoding: any unintended change to the
// deterministic stream (RNG, profiles, generator logic, record format)
// fails here. It hashes the recorded stream's flat record serialisation
// (the legacy IPFTRC01 layout, which has no compression in it), so the
// pins do not depend on how containers frame or compress chunks. When a
// change is intentional (e.g. recalibrating a profile), update the
// hashes via:
//
//	go test -run TestGoldenTraces -v   # prints the new hashes on failure
func TestGoldenTraces(t *testing.T) {
	golden := map[string]string{
		"DB":    "108631b09efd5b8e24e940911c1f1069c7b21d44744bd497a0821e03e4e9cf46",
		"TPC-W": "13639f20f27dafc4652f4da9922cdc4ddb917deec2a2f902325c5c13be05bf52",
		"jApp":  "b44334d979c8518f3668d96705dd56ebe2bd5d14e77bcd09471a56d64e506bc9",
		"Web":   "0c0f9049033b2dc8c19c8cdcb12d8b3c95c5f349e2d83e8070b1bb69cdc615dc",
	}
	for _, app := range WorkloadNames() {
		var buf bytes.Buffer
		if err := RecordTrace(&buf, app, 1, 10000); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(flatRecords(t, &buf)))
		if got != golden[app] {
			t.Errorf("%s: trace hash %s, golden %s (update the table if this change is intentional)",
				app, got, golden[app])
		}
	}
}

// flatRecords decodes a recorded trace and re-serialises it as a flat
// IPFTRC01 stream: magic, name, asid, then each record delta-based on
// the previous block's NextPC.
func flatRecords(t *testing.T, r io.Reader) []byte {
	t.Helper()
	tr, err := trace.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	out := bytes.NewBufferString("IPFTRC01")
	out.Write(binary.AppendUvarint(nil, uint64(len(tr.Name()))))
	out.WriteString(tr.Name())
	out.Write(binary.AppendUvarint(nil, tr.ASID()))
	scratch := make([]byte, binary.MaxVarintLen64)
	var prevNext isa.Addr
	var b isa.Block
	for {
		if err := tr.Read(&b); err == io.EOF {
			return out.Bytes()
		} else if err != nil {
			t.Fatal(err)
		}
		prevNext = trace.EncodeRecord(out, scratch, prevNext, &b)
	}
}

func TestMachineWritebacks(t *testing.T) {
	run := func(wb bool) Metrics {
		m, err := NewMachine(MachineConfig{Workloads: []string{"DB"}, ModelWritebacks: wb})
		if err != nil {
			t.Fatal(err)
		}
		m.Run(150_000)
		return m.Metrics()
	}
	plain, wb := run(false), run(true)
	// Writeback traffic consumes bandwidth: the run can only get slower
	// (or equal), never faster, and the stream is otherwise identical.
	if wb.Instructions != plain.Instructions {
		t.Fatalf("instruction counts diverged: %d vs %d", wb.Instructions, plain.Instructions)
	}
	if wb.Cycles < plain.Cycles {
		t.Fatalf("writebacks made the run faster: %d < %d cycles", wb.Cycles, plain.Cycles)
	}
}

func TestPrefetcherConstantsRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, n := range Prefetchers() {
		names[n] = true
	}
	for _, c := range []string{
		PrefetcherNone, PrefetcherNextLineAlways, PrefetcherNextLineOnMiss,
		PrefetcherNextLineTagged, PrefetcherNext2Tagged, PrefetcherNext4Tagged,
		PrefetcherNext8Tagged, PrefetcherLookahead4, PrefetcherTarget,
		PrefetcherMarkov, PrefetcherWrongPath, PrefetcherStreams,
		PrefetcherDiscontinuity, PrefetcherDiscont2NL,
	} {
		if !names[c] {
			t.Errorf("constant %q not in registry", c)
		}
	}
	// Every registered scheme builds a runnable machine.
	for _, n := range Prefetchers() {
		if _, err := NewMachine(MachineConfig{Prefetcher: n}); err != nil {
			t.Errorf("scheme %q: %v", n, err)
		}
	}
}
