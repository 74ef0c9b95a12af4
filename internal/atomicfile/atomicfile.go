// Package atomicfile replaces files so that a reader sees the old
// content or the new, never a partial write.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces path with data: it writes a temporary file in the same
// directory and renames it over path.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
