package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/analysis"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// WorkloadInfo summarises one built-in application model.
type WorkloadInfo struct {
	// Name is the application name ("DB", "TPC-W", "jApp", "Web").
	Name string
	// Functions is the number of user functions in the program image.
	Functions int
	// CodeBytes is the total user code footprint.
	CodeBytes int
	// Description explains what the model stands in for.
	Description string
}

var workloadDescriptions = map[string]string{
	"DB":    "on-line transaction processing database (paper's proprietary DB workload)",
	"TPC-W": "transactional web benchmark (TPC-W)",
	"jApp":  "Java enterprise application server (SPECjAppServer2002)",
	"Web":   "web server (SPECweb99)",
}

// Workloads describes the built-in application models.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, p := range workload.Profiles() {
		prog := workload.MustBuildProgram(p, 0)
		out = append(out, WorkloadInfo{
			Name:        p.Name,
			Functions:   prog.NumUser,
			CodeBytes:   prog.CodeBytes,
			Description: workloadDescriptions[p.Name],
		})
	}
	return out
}

// RecordTrace captures n dynamic basic blocks of the named application
// into w as an IPFTRC02 container, the library's one trace encoding.
// seed selects the stream; equal (name, seed, n) always produce
// identical traces.
func RecordTrace(w io.Writer, name string, seed uint64, n uint64) error {
	return RecordTraceContext(context.Background(), w, name, seed, n)
}

// RecordTraceContext is RecordTrace with cooperative cancellation: the
// capture stops with ctx's error when ctx fires, still finalising the
// container, so the output is a valid trace of the blocks recorded so
// far.
func RecordTraceContext(ctx context.Context, w io.Writer, name string, seed uint64, n uint64) error {
	prof, err := workload.ByName(name)
	if err != nil {
		return err
	}
	prog, err := workload.BuildProgram(prof, 0)
	if err != nil {
		return err
	}
	return trace.RecordContext(ctx, w, name, 0, workload.NewGenerator(prog, seed), n)
}

// TraceStats summarises a recorded trace.
type TraceStats struct {
	// Workload is the application name from the trace header.
	Workload string
	// Format is the container magic ("IPFTRC01" or "IPFTRC02").
	Format string
	// Blocks and Instructions count the records read.
	Blocks       uint64
	Instructions uint64
	// MemOps counts data accesses.
	MemOps uint64
	// CTIMix gives the share of blocks ending in each CTI kind, keyed by
	// kind name.
	CTIMix map[string]float64
}

// ReadTraceStats validates a trace stream and returns its statistics.
// It reads the stream to the end.
func ReadTraceStats(r io.Reader) (TraceStats, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return TraceStats{}, err
	}
	out := TraceStats{Workload: tr.Name(), Format: tr.Format(), CTIMix: map[string]float64{}}
	counts := map[isa.CTIKind]uint64{}
	var b isa.Block
	for {
		err := tr.Read(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return TraceStats{}, fmt.Errorf("repro: trace invalid: %w", err)
		}
		out.Blocks++
		out.Instructions += uint64(b.NumInstrs)
		out.MemOps += uint64(len(b.MemOps))
		counts[b.CTI]++
	}
	if out.Blocks > 0 {
		for k, c := range counts {
			out.CTIMix[k.String()] = float64(c) / float64(out.Blocks)
		}
	}
	return out, nil
}

// AnalyzeWorkload characterises n blocks of the named application's
// stream (footprint, working sets, CTI mix, reuse and discontinuity
// structure) and writes a report to w.
func AnalyzeWorkload(w io.Writer, name string, seed, n uint64) error {
	return AnalyzeWorkloadContext(context.Background(), w, name, seed, n)
}

// AnalyzeWorkloadContext is AnalyzeWorkload with cooperative
// cancellation; it returns ctx's error without writing a report when
// ctx fires mid-analysis.
func AnalyzeWorkloadContext(ctx context.Context, w io.Writer, name string, seed, n uint64) error {
	prof, err := workload.ByName(name)
	if err != nil {
		return err
	}
	prog, err := workload.BuildProgram(prof, 0)
	if err != nil {
		return err
	}
	g := workload.NewGenerator(prog, seed)
	p := analysis.NewProfile(64)
	var b isa.Block
	for i := uint64(0); i < n; i++ {
		if i%8192 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		g.Next(&b)
		p.Observe(&b)
	}
	fmt.Fprintf(w, "workload %s (seed %d)\n", name, seed)
	p.Report(w)
	return nil
}

// AnalyzeTrace characterises a recorded trace stream and writes a report
// to w. It reads the stream to the end.
func AnalyzeTrace(w io.Writer, r io.Reader) error {
	return AnalyzeTraceContext(context.Background(), w, r)
}

// AnalyzeTraceContext is AnalyzeTrace with cooperative cancellation;
// it returns ctx's error without writing a report when ctx fires
// mid-stream.
func AnalyzeTraceContext(ctx context.Context, w io.Writer, r io.Reader) error {
	cr := &countingByteReader{r: r}
	tr, err := trace.NewReader(cr)
	if err != nil {
		return err
	}
	p := analysis.NewProfile(64)
	var b isa.Block
	var blocks uint64
	for i := 0; ; i++ {
		if i%8192 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		err := tr.Read(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("repro: trace invalid: %w", err)
		}
		p.Observe(&b)
		blocks++
	}
	fmt.Fprintf(w, "workload %s (recorded trace, %s)\n", tr.Name(), tr.Format())
	p.Report(w)
	if blocks > 0 {
		fmt.Fprintf(w, "container size      %d bytes (%.1f bits/block)\n",
			cr.n, float64(cr.n*8)/float64(blocks))
	}
	return nil
}

// countingByteReader counts the bytes consumed from r so trace
// analysis can report the container's encoded size and bits/block.
type countingByteReader struct {
	r io.Reader
	n int64
}

func (c *countingByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
