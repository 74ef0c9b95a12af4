package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

// TestRunSpecKeyGolden pins RunSpec.Key() byte for byte for a set of
// historical specs: the default, the paper's table and ahead knobs, an
// oracle, explicit geometries, the ablation flags, each co-design axis
// and ForkWarm. Memo entries, service result stores, sweep journal keys
// and sweep ids all derive from this string, so a change here silently
// orphans every result recorded under the old encoding.
func TestRunSpecKeyGolden(t *testing.T) {
	db := Workload{Name: "DB", Apps: []string{"DB"}}
	mixed := Workload{Name: "Mixed", Apps: []string{"DB", "jApp", "Web", "TPC-W"}}
	var oracle [isa.NumSuperCategories]bool
	oracle[0] = true
	const noGeom = "{SizeBytes:0 Assoc:0 LineBytes:0 Policy:LRU}"
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"default", RunSpec{Workload: db, Cores: 1, Scheme: "none"},
			"DB|1|none|false|[false false false false]|" + noGeom + "|" + noGeom + "|0|0|false|false|false|false|false|0|0|false"},
		{"cmp bypass", RunSpec{Workload: mixed, Cores: 4, Scheme: "discontinuity", Bypass: true},
			"Mixed|4|discontinuity|true|[false false false false]|" + noGeom + "|" + noGeom + "|0|0|false|false|false|false|false|0|0|false"},
		{"table and ahead", RunSpec{Workload: db, Cores: 1, Scheme: "discontinuity", TableEntries: 512, PrefetchAhead: 4},
			"DB|1|discontinuity|false|[false false false false]|" + noGeom + "|" + noGeom + "|512|4|false|false|false|false|false|0|0|false"},
		{"oracle", RunSpec{Workload: db, Cores: 1, Scheme: "none", Oracle: oracle},
			"DB|1|none|false|[true false false false]|" + noGeom + "|" + noGeom + "|0|0|false|false|false|false|false|0|0|false"},
		{"geometry", RunSpec{Workload: db, Cores: 1, Scheme: "n4l-tagged",
			L1I: cache.Config{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64},
			L2:  cache.Config{SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64}},
			"DB|1|n4l-tagged|false|[false false false false]|{SizeBytes:65536 Assoc:4 LineBytes:64 Policy:LRU}|{SizeBytes:1048576 Assoc:8 LineBytes:64 Policy:LRU}|0|0|false|false|false|false|false|0|0|false"},
		{"ablations", RunSpec{Workload: db, Cores: 1, Scheme: "discontinuity", NoCounter: true, NoRecentFilter: true,
			QueueFIFO: true, L2UsefulnessFilter: true, ConfidenceFilter: true, OffChipGBps: 2.5, L1IPolicy: 1, ModelWritebacks: true},
			"DB|1|discontinuity|false|[false false false false]|" + noGeom + "|" + noGeom + "|0|0|true|true|true|true|true|2.5|1|true"},
		{"insertion", RunSpec{Workload: db, Cores: 1, Scheme: "discontinuity", Bypass: true, InsertPolicy: "mid"},
			"DB|1|discontinuity|true|[false false false false]|" + noGeom + "|" + noGeom + "|0|0|false|false|false|false|false|0|0|false|ins=mid|tlb=|wp="},
		{"tlb fill", RunSpec{Workload: db, Cores: 1, Scheme: "progmap", Bypass: true, TLBFill: "primary"},
			"DB|1|progmap|true|[false false false false]|" + noGeom + "|" + noGeom + "|0|0|false|false|false|false|false|0|0|false|ins=|tlb=primary|wp="},
		{"wrong path", RunSpec{Workload: db, Cores: 1, Scheme: "discontinuity", Bypass: true, WrongPath: "train:2"},
			"DB|1|discontinuity|true|[false false false false]|" + noGeom + "|" + noGeom + "|0|0|false|false|false|false|false|0|0|false|ins=|tlb=|wp=train:2"},
		{"fork warm", RunSpec{Workload: db, Cores: 2, Scheme: "hybrid:discontinuity+mana", Bypass: true, ForkWarm: true},
			"DB|2|hybrid:discontinuity+mana|true|[false false false false]|" + noGeom + "|" + noGeom + "|0|0|false|false|false|false|false|0|0|false|fork"},
		{"fork warm co-design", RunSpec{Workload: db, Cores: 1, Scheme: "discontinuity", TableEntries: 1024,
			InsertPolicy: "lru", TLBFill: "secondary", WrongPath: "pollute:4", ForkWarm: true},
			"DB|1|discontinuity|false|[false false false false]|" + noGeom + "|" + noGeom + "|1024|0|false|false|false|false|false|0|0|false|ins=lru|tlb=secondary|wp=pollute:4|fork"},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: Key() =\n  %q\nwant\n  %q", c.name, got, c.want)
		}
	}
}

// TestCacheKeyCoversConfig fails when cache.Config gains a field that
// cacheKey does not write: each field must appear by name, and changing
// any one of them must change the key, or two different geometries
// would share memo entries, stored results and journal keys.
func TestCacheKeyCoversConfig(t *testing.T) {
	base := cache.Config{SizeBytes: 16 << 10, Assoc: 2, LineBytes: 64}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !strings.Contains(cacheKey(base), name+":") {
			t.Errorf("cacheKey does not name cache.Config.%s", name)
		}
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 1)
		default:
			t.Fatalf("cache.Config.%s has kind %s: teach cacheKey and this test to write it", name, f.Kind())
		}
		if cacheKey(c) == cacheKey(base) {
			t.Errorf("cacheKey ignores cache.Config.%s", name)
		}
	}
}
