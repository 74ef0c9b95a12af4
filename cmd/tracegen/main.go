// Command tracegen records, inspects and validates basic-block traces of
// the built-in workloads (the library's stand-in for the paper's
// trace-driven methodology).
//
// Usage:
//
//	tracegen record  -app DB -n 1000000 -seed 1 -o db.itf
//	tracegen stats   -i db.itf
//	tracegen analyze -app DB -n 1000000   # footprint/reuse/discontinuity study
//	tracegen analyze -i db.itf            # same, over a recorded trace
//	tracegen verify  -i db.itf            # frame CRCs + index + counts
//	tracegen verify  -data ./results -id <sha256>   # corpus entry + fingerprint
//	tracegen ingest  -i db.itf -data ./results      # trace file -> corpus entry
//	tracegen ingest  -app DB -n 1000000 -data ./results  # capture straight in
//	tracegen corpus  -data ./results      # list corpus entries
//	tracegen corpus  -data ./results -select 'footprint>4096,cti>0.1'
//	tracegen dedup-stats -data ./results [-json]   # chunk-sharing report
//	tracegen gc      -data ./results [-grace 1h] [-dry-run] [-json]
//	tracegen list                         # list built-in workloads
//
// dedup-stats and gc are scripting-friendly: exit 0 on success, 1 on
// store errors, 2 on usage errors; -json emits one machine-readable
// object on stdout.
//
// record and analyze honour SIGINT/SIGTERM and -timeout: the run stops
// cooperatively with exit status 1, and an interrupted record leaves a
// valid trace of the blocks captured so far (the container is
// finalised with its index and footer on interruption).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/corpus"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch os.Args[1] {
	case "record":
		record(ctx, os.Args[2:])
	case "stats":
		statsCmd(os.Args[2:])
	case "analyze":
		analyzeCmd(ctx, os.Args[2:])
	case "verify":
		verifyCmd(os.Args[2:])
	case "ingest":
		ingestCmd(ctx, os.Args[2:])
	case "corpus":
		corpusCmd(os.Args[2:])
	case "dedup-stats":
		dedupStatsCmd(os.Args[2:])
	case "gc":
		gcCmd(os.Args[2:])
	case "list":
		list()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracegen record|stats|analyze|verify|ingest|corpus|dedup-stats|gc|list [flags]")
	os.Exit(2)
}

// withTimeout bounds ctx by the -timeout flag value (0 = no limit).
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

func record(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	app := fs.String("app", "DB", "workload name")
	n := fs.Uint64("n", 1_000_000, "number of basic blocks to record")
	seed := fs.Uint64("seed", 1, "stream seed")
	out := fs.String("o", "", "output file (default stdout)")
	timeout := fs.Duration("timeout", 0, "abort recording after this long (0 = no limit)")
	fs.Parse(args)
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := repro.RecordTraceContext(ctx, w, *app, *seed, *n); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "recording interrupted (%v); partial trace is valid\n", err)
			os.Exit(1)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "recorded %d blocks of %s\n", *n, *app)
}

func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (default stdin)")
	fs.Parse(args)

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	st, err := repro.ReadTraceStats(r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload      %s\n", st.Workload)
	fmt.Printf("format        %s\n", st.Format)
	fmt.Printf("blocks        %d\n", st.Blocks)
	fmt.Printf("instructions  %d\n", st.Instructions)
	fmt.Printf("memops        %d (%.3f per instruction)\n", st.MemOps,
		float64(st.MemOps)/float64(st.Instructions))
	fmt.Printf("CTI mix:\n")
	keys := make([]string, 0, len(st.CTIMix))
	for k := range st.CTIMix {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return st.CTIMix[keys[i]] > st.CTIMix[keys[j]] })
	for _, k := range keys {
		fmt.Printf("  %-16s %.2f%%\n", k, 100*st.CTIMix[k])
	}
}

func analyzeCmd(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	app := fs.String("app", "", "workload name to analyze live (mutually exclusive with -i)")
	in := fs.String("i", "", "recorded trace to analyze")
	n := fs.Uint64("n", 1_000_000, "blocks to analyze (live mode)")
	seed := fs.Uint64("seed", 1, "stream seed (live mode)")
	timeout := fs.Duration("timeout", 0, "abort analysis after this long (0 = no limit)")
	fs.Parse(args)
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	switch {
	case *app != "" && *in != "":
		fatal(fmt.Errorf("use either -app or -i, not both"))
	case *app != "":
		if err := repro.AnalyzeWorkloadContext(ctx, os.Stdout, *app, *seed, *n); err != nil {
			fatal(err)
		}
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := repro.AnalyzeTraceContext(ctx, os.Stdout, f); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("analyze needs -app or -i"))
	}
}

// verifyCmd checks integrity: every frame CRC, count and the index for
// a container file, plus the content hash and stream fingerprint for a
// corpus entry.
func verifyCmd(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("i", "", "container file to verify")
	data := fs.String("data", "", "data directory holding a corpus (with -id)")
	id := fs.String("id", "", "corpus entry hash to verify (with -data)")
	fs.Parse(args)

	switch {
	case *in != "" && (*data != "" || *id != ""):
		fatal(fmt.Errorf("use either -i or -data/-id, not both"))
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		st, err := repro.ReadTraceStats(f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ok: %s %s, %d blocks, %d instructions\n",
			st.Format, st.Workload, st.Blocks, st.Instructions)
	case *data != "" && *id != "":
		store, err := corpus.Open(filepath.Join(*data, "corpus"))
		if err != nil {
			fatal(err)
		}
		if err := store.Verify(*id); err != nil {
			fatal(err)
		}
		m, err := store.Get(*id)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ok: %s (%s) %d blocks, %d instructions, %d chunks, %d bytes; fingerprint matches\n",
			m.ID[:12], m.Name, m.Blocks, m.Instructions, m.Chunks, m.SizeBytes)
	default:
		fatal(fmt.Errorf("verify needs -i, or -data and -id"))
	}
}

// ingestCmd converts a trace file (or a live capture) into a
// content-addressed corpus entry.
func ingestCmd(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	in := fs.String("i", "", "trace file to ingest (mutually exclusive with -app)")
	app := fs.String("app", "", "workload to capture live")
	n := fs.Uint64("n", 1_000_000, "blocks to capture (live mode)")
	seed := fs.Uint64("seed", 1, "stream seed (live mode)")
	data := fs.String("data", "", "data directory holding the corpus (required)")
	timeout := fs.Duration("timeout", 0, "abort capture after this long (0 = no limit)")
	fs.Parse(args)
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	if *data == "" {
		fatal(fmt.Errorf("ingest needs -data"))
	}
	store, err := corpus.Open(filepath.Join(*data, "corpus"))
	if err != nil {
		fatal(err)
	}
	var m corpus.Manifest
	switch {
	case *in != "" && *app != "":
		fatal(fmt.Errorf("use either -i or -app, not both"))
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if m, err = store.Put(f, "ingest"); err != nil {
			fatal(err)
		}
	case *app != "":
		var buf bytes.Buffer
		if err := repro.RecordTraceContext(ctx, &buf, *app, *seed, *n); err != nil {
			fatal(err)
		}
		if m, err = store.Put(bytes.NewReader(buf.Bytes()), "capture"); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("ingest needs -i or -app"))
	}
	fmt.Printf("%s\n", m.ID)
	fmt.Fprintf(os.Stderr, "ingested %s: %d blocks, %d instructions, %d chunks, %d bytes\n",
		m.Name, m.Blocks, m.Instructions, m.Chunks, m.SizeBytes)
}

// corpusCmd lists the entries of a corpus.
func corpusCmd(args []string) {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	data := fs.String("data", "", "data directory holding the corpus (required)")
	sel := fs.String("select", "", "fingerprint selector, e.g. 'footprint>4096,cti>0.1' (empty = all)")
	fs.Parse(args)
	store := openCorpus(*data, "corpus")
	ids, err := store.Select(*sel)
	if err != nil {
		usageFatal(err)
	}
	for _, id := range ids {
		m, err := store.Get(id)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s  %-6s %10d blocks %12d instrs %5d chunks %10d bytes  %s\n",
			m.ID[:12], m.Name, m.Blocks, m.Instructions, m.Chunks, m.SizeBytes,
			m.CreatedAt.Format("2006-01-02 15:04"))
	}
}

// openCorpus opens <data>/corpus or exits with a usage error when
// -data is missing.
func openCorpus(data, cmd string) *corpus.Store {
	if data == "" {
		usageFatal(fmt.Errorf("%s needs -data", cmd))
	}
	store, err := corpus.Open(filepath.Join(data, "corpus"))
	if err != nil {
		fatal(err)
	}
	return store
}

// dedupStatsCmd reports how much the chunk CAS is sharing: entry and
// chunk counts, logical vs stored bytes, and the dedup/space ratios.
func dedupStatsCmd(args []string) {
	fs := flag.NewFlagSet("dedup-stats", flag.ExitOnError)
	data := fs.String("data", "", "data directory holding the corpus (required)")
	asJSON := fs.Bool("json", false, "emit one JSON object instead of text")
	fs.Parse(args)
	store := openCorpus(*data, "dedup-stats")
	st, err := store.CorpusStats()
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("entries        %d\n", st.Entries)
	fmt.Printf("chunk refs     %d\n", st.ChunkRefs)
	fmt.Printf("unique chunks  %d\n", st.UniqueChunks)
	fmt.Printf("orphan chunks  %d\n", st.OrphanChunks)
	fmt.Printf("logical bytes  %d\n", st.LogicalBytes)
	fmt.Printf("stored bytes   %d\n", st.StoredBytes)
	fmt.Printf("dedup ratio    %.3f\n", st.DedupRatio)
	fmt.Printf("space saved    %.3f\n", st.SpaceSaved)
}

// gcCmd runs one mark-and-sweep pass over the chunk CAS.
func gcCmd(args []string) {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	data := fs.String("data", "", "data directory holding the corpus (required)")
	grace := fs.Duration("grace", 0, "protect chunks newer than this (0 = 1h default, negative = none)")
	dryRun := fs.Bool("dry-run", false, "report what would be deleted without deleting")
	asJSON := fs.Bool("json", false, "emit one JSON object instead of text")
	fs.Parse(args)
	store := openCorpus(*data, "gc")
	st, err := store.GC(corpus.GCOptions{Grace: *grace, DryRun: *dryRun})
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fatal(err)
		}
		return
	}
	verb := "deleted"
	if st.DryRun {
		verb = "would delete"
	}
	fmt.Printf("%s %d of %d chunks (%d bytes); %d live, %d in grace window\n",
		verb, st.Deleted, st.Scanned, st.Reclaimed, st.Live, st.Skipped)
}

func list() {
	for _, w := range repro.Workloads() {
		fmt.Printf("%-6s %5d functions, %.1f MB code — %s\n",
			w.Name, w.Functions, float64(w.CodeBytes)/(1<<20), w.Description)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// usageFatal reports a usage-level mistake (missing flag, malformed
// selector) with the scripting exit code 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
