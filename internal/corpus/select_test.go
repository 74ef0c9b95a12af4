package corpus

import (
	"os"
	"testing"

	"repro/internal/workload"
)

func TestParseSelector(t *testing.T) {
	good := []string{
		"",
		"footprint>4096",
		"footprint>=4096, cti>0.1",
		"name=Web",
		"name!=DB2",
		"miss<=0.5,calls>0,single_target<100",
		"instructions != 0",
	}
	for _, expr := range good {
		if _, err := ParseSelector(expr); err != nil {
			t.Fatalf("ParseSelector(%q): %v", expr, err)
		}
	}
	bad := []string{
		"footprint",           // no op
		">4096",               // no field
		"footprint>",          // no value
		"footprint>abc",       // bad number
		"bogus>1",             // unknown field
		"name>Web",            // ordered op on string field
		"footprint=4096,name", // second term broken
	}
	for _, expr := range bad {
		if _, err := ParseSelector(expr); err == nil {
			t.Fatalf("ParseSelector(%q) accepted", expr)
		}
	}
}

func TestSelectFiltersAndSorts(t *testing.T) {
	s := newStore(t)
	prog := workload.MustBuildProgram(workload.Web(), 0)
	mWeb, err := s.Capture(workload.NewGenerator(prog, 1), "Web", 0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	dbProg := workload.MustBuildProgram(workload.DB(), 0)
	mDB, err := s.Capture(workload.NewGenerator(dbProg, 1), "DB2", 0, 3000)
	if err != nil {
		t.Fatal(err)
	}

	// Empty expression selects everything, sorted.
	all, err := s.Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("Select(\"\") = %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("Select output not sorted: %v", all)
		}
	}

	byName, err := s.Select("name=Web")
	if err != nil {
		t.Fatal(err)
	}
	if len(byName) != 1 || byName[0] != mWeb.ID {
		t.Fatalf("name=Web selected %v, want [%s]", byName, mWeb.ID)
	}

	// Numeric filter splitting the two entries: use each entry's own
	// instruction count so the test doesn't depend on profile details.
	lo, hi := mWeb, mDB
	if lo.Instructions > hi.Instructions {
		lo, hi = hi, lo
	}
	if lo.Instructions == hi.Instructions {
		t.Skip("profiles produced identical instruction counts")
	}
	sel, err := s.Select("instructions>" + itoa(lo.Instructions))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != hi.ID {
		t.Fatalf("instructions filter selected %v, want [%s]", sel, hi.ID)
	}

	// Conjunction that nothing satisfies.
	none, err := s.Select("instructions>0,instructions<1")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("impossible conjunction selected %v", none)
	}

	// Determinism: the same expression expands identically.
	again, err := s.Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(all) {
		t.Fatal("Select not deterministic")
	}
	for i := range all {
		if all[i] != again[i] {
			t.Fatal("Select not deterministic")
		}
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestIndexRebuildsAfterOutOfBandChange: deleting a manifest behind the
// index's back (as another process or GC on a shared volume would) must
// not leave stale ids in query results.
func TestIndexRebuildsAfterOutOfBandChange(t *testing.T) {
	s := newStore(t)
	m1 := captureWeb(t, s, 1, 800)
	m2 := captureWeb(t, s, 2, 800)
	if _, err := s.Select(""); err != nil { // populate index
		t.Fatal(err)
	}
	if err := os.Remove(s.manifestPath(m1.ID)); err != nil {
		t.Fatal(err)
	}
	ids, err := s.Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != m2.ID {
		t.Fatalf("index served stale ids: %v", ids)
	}
	// Corrupt index file: queries still work via rebuild.
	if err := os.WriteFile(s.indexPath(), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err = s.Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != m2.ID {
		t.Fatalf("corrupt index not rebuilt: %v", ids)
	}
}
