package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesAndLeavesNoTemp: Write creates and then replaces a
// file, and no temporary file survives.
func TestWriteReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, want := range []string{"old", "new"} {
		if err := Write(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d entries in the directory, want only the file", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
