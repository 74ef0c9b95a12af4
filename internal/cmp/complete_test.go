package cmp

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/rng"
	"repro/internal/workload"
)

// blockTrace is an in-memory workload.ChunkedTrace. Like a corpus
// entry's decoder, DecodeChunk returns a fresh copy of the chunk.
type blockTrace struct{ chunks [][]isa.Block }

func (t *blockTrace) NumChunks() int { return len(t.chunks) }

func (t *blockTrace) Blocks() uint64 {
	var n uint64
	for _, c := range t.chunks {
		n += uint64(len(c))
	}
	return n
}

func (t *blockTrace) DecodeChunk(i int) ([]isa.Block, error) {
	return copyBlocks(t.chunks[i]), nil
}

func copyBlocks(blocks []isa.Block) []isa.Block {
	out := make([]isa.Block, len(blocks))
	for i, b := range blocks {
		out[i] = b
		out[i].MemOps = append([]isa.MemOp(nil), b.MemOps...)
	}
	return out
}

// recordTrace records chunks of chunkBlocks blocks from one DB thread.
func recordTrace(t *testing.T, chunks, chunkBlocks int) *blockTrace {
	t.Helper()
	srcs, err := SourcesFor([]string{"DB"}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := &blockTrace{}
	var b isa.Block
	for c := 0; c < chunks; c++ {
		chunk := make([]isa.Block, chunkBlocks)
		for i := range chunk {
			srcs[0].Next(&b)
			chunk[i] = b
		}
		tr.chunks = append(tr.chunks, copyBlocks(chunk))
	}
	return tr
}

// sharedImmutable are the types two machines may share: program images
// and their samplers, and recorded trace containers, are read-only once
// built. The walk neither enters nor records them.
var sharedImmutable = map[reflect.Type]bool{
	reflect.TypeOf((*workload.Program)(nil)): true,
	reflect.TypeOf((*rng.Zipf)(nil)):         true,
	reflect.TypeOf((*blockTrace)(nil)):       true,
}

// isStateType reports whether an embedded field holds a component's
// dynamic state: by convention its struct type is named "state" or
// "<component>State", with type arguments when it is generic.
func isStateType(t reflect.Type) bool {
	name, _, _ := strings.Cut(t.Name(), "[")
	return t.Kind() == reflect.Struct && strings.HasSuffix(strings.ToLower(name), "state")
}

type stateAt struct {
	path string
	v    reflect.Value
}

type region struct {
	start, end uintptr
	path       string
}

// graph is what a reflection walk finds reachable from a root: every
// embedded state struct, in walk order, and the memory that every
// slice, map, pointer and channel refers to.
type graph struct {
	states  []stateAt
	regions []region
	seen    map[seenKey]bool
	ptrFree map[reflect.Type]bool
}

type seenKey struct {
	addr uintptr
	typ  reflect.Type
}

func walk(name string, root any) *graph {
	g := &graph{seen: map[seenKey]bool{}, ptrFree: map[reflect.Type]bool{}}
	g.value(name, reflect.ValueOf(root))
	return g
}

func (g *graph) addRegion(path string, start, size uintptr) {
	if size > 0 {
		g.regions = append(g.regions, region{start, start + size, path})
	}
}

// pointerFree reports whether values of t hold no references to walk.
// Strings count as pointer-free: they are immutable.
func (g *graph) pointerFree(t reflect.Type) bool {
	if free, ok := g.ptrFree[t]; ok {
		return free
	}
	g.ptrFree[t] = true // provisional, for recursive types
	free := true
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		free = false
	case reflect.Array:
		free = g.pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !g.pointerFree(t.Field(i).Type) {
				free = false
				break
			}
		}
	}
	g.ptrFree[t] = free
	return free
}

func (g *graph) value(path string, v reflect.Value) {
	if sharedImmutable[v.Type()] {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		k := seenKey{v.Pointer(), v.Type()}
		if v.IsNil() || g.seen[k] {
			return
		}
		g.seen[k] = true
		g.addRegion(path, v.Pointer(), v.Type().Elem().Size())
		g.value(path, v.Elem())
	case reflect.Interface:
		if !v.IsNil() {
			g.value(path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			fp := path + "." + f.Name
			if f.Anonymous && isStateType(f.Type) {
				g.states = append(g.states, stateAt{fp, v.Field(i)})
			}
			if !g.pointerFree(f.Type) {
				g.value(fp, v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		g.addRegion(path, v.Pointer(), uintptr(v.Cap())*v.Type().Elem().Size())
		if !g.pointerFree(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				g.value(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		}
	case reflect.Array:
		if !g.pointerFree(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				g.value(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		}
	case reflect.Map:
		k := seenKey{v.Pointer(), v.Type()}
		if v.IsNil() || g.seen[k] {
			return
		}
		g.seen[k] = true
		g.addRegion(path, v.Pointer(), 1)
		if !g.pointerFree(v.Type().Key()) || !g.pointerFree(v.Type().Elem()) {
			for it := v.MapRange(); it.Next(); {
				g.value(path+"[key]", it.Key())
				g.value(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value())
			}
		}
	case reflect.Chan:
		if !v.IsNil() {
			g.addRegion(path, v.Pointer(), 1)
		}
	}
}

// overlaps returns the paths in g whose memory overlaps any region of
// the others.
func (g *graph) overlaps(others ...*graph) []string {
	var forbidden []region
	for _, o := range others {
		forbidden = append(forbidden, o.regions...)
	}
	sort.Slice(forbidden, func(i, j int) bool { return forbidden[i].start < forbidden[j].start })
	maxEnd := make([]uintptr, len(forbidden))
	for i, r := range forbidden {
		maxEnd[i] = r.end
		if i > 0 && maxEnd[i-1] > r.end {
			maxEnd[i] = maxEnd[i-1]
		}
	}
	var out []string
	for _, r := range g.regions {
		n := sort.Search(len(forbidden), func(i int) bool { return forbidden[i].start >= r.end })
		if n == 0 || maxEnd[n-1] <= r.start {
			continue
		}
		for i := n - 1; i >= 0; i-- {
			if forbidden[i].end > r.start {
				out = append(out, fmt.Sprintf("%s shares memory with %s", r.path, forbidden[i].path))
				break
			}
		}
	}
	return out
}

// exported returns an addressable state struct as an interface value,
// unexported fields and all.
func exported(t *testing.T, s stateAt) any {
	if !s.v.CanAddr() {
		t.Fatalf("%s: state struct is not addressable", s.path)
	}
	return reflect.NewAt(s.v.Type(), unsafe.Pointer(s.v.UnsafeAddr())).Elem().Interface()
}

// machineStates are the state types every machine must contain; the
// workload cursor (cursorStates) and the scheme's state depend on the
// case.
var machineStates = []string{
	"cache.state", "tlb.state", "bpred.state", "memory.portState", "memory.inFlightState",
	"core.queueState", "core.recentState", "core.memState", "core.frontEndState", "cpu.coreState",
}

// cursorStates are the workload cursors' state types, by source.
var cursorStates = map[string]string{
	"generator": "workload.aheadState[repro/internal/workload.generatorState]",
	"trace":     "workload.aheadState[int]",
}

// TestMachineSnapshotComplete is the gate on snapshots being complete
// by construction: for every scheme and both workload sources, a
// machine restored from a snapshot holds state structs equal to its
// source's, and none of its memory is shared with the snapshot or the
// source, so neither can change it later.
func TestMachineSnapshotComplete(t *testing.T) {
	const cores = 4
	tr := recordTrace(t, 4, 1500)
	sources := map[string]func() []workload.Source{
		"generator": func() []workload.Source {
			srcs, err := SourcesFor([]string{"DB"}, cores, 1)
			if err != nil {
				t.Fatal(err)
			}
			return srcs
		},
		"trace": func() []workload.Source {
			srcs := make([]workload.Source, cores)
			for i := range srcs {
				src, err := workload.FromTrace(tr)
				if err != nil {
					t.Fatal(err)
				}
				srcs[i] = src
			}
			return srcs
		},
	}
	schemes := append(prefetch.SchemeNames(), "hybrid:discontinuity+mana")
	for _, scheme := range schemes {
		for _, srcName := range []string{"generator", "trace"} {
			t.Run(scheme+"/"+srcName, func(t *testing.T) {
				build := func() *System {
					cfg := DefaultConfig(cores)
					cfg.PrefetcherName = scheme
					sys, err := New(cfg, sources[srcName](), nil)
					if err != nil {
						t.Fatal(err)
					}
					return sys
				}
				a := build()
				a.Run(10_000)
				a.ResetStats() // sets the front-ends' baselines
				a.Run(5_000)
				snap, err := a.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				b := build()
				if err := b.Restore(snap); err != nil {
					t.Fatal(err)
				}

				ga, gb := walk("source", a), walk("restored", b)
				if len(ga.states) != len(gb.states) {
					t.Fatalf("source has %d state structs, restored machine %d", len(ga.states), len(gb.states))
				}
				found := map[string]bool{}
				for i, sa := range ga.states {
					sb := gb.states[i]
					if strings.TrimPrefix(sa.path, "source") != strings.TrimPrefix(sb.path, "restored") {
						t.Fatalf("walks differ: %s vs %s", sa.path, sb.path)
					}
					found[sa.v.Type().String()] = true
					if !reflect.DeepEqual(exported(t, sa), exported(t, sb)) {
						t.Errorf("%s differs from %s", sb.path, sa.path)
					}
				}
				for _, name := range append(machineStates, cursorStates[srcName]) {
					if !found[name] {
						t.Errorf("no %s found in the machine", name)
					}
				}
				for _, msg := range gb.overlaps(walk("snapshot", snap), ga) {
					t.Error(msg)
				}
			})
		}
	}
}
