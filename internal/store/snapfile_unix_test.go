//go:build unix

package store

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// The census and the server may run as different users: the file the
// census publishes must be readable by others, whatever the umask, and
// the rename must not leak CreateTemp's 0600.
func TestSaveSnapshotFileWorldReadable(t *testing.T) {
	old := syscall.Umask(0o077)
	defer syscall.Umask(old)
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := SaveSnapshotFile(path, testSnapshot(t, 2)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("snapshot file mode %v, want -rw-r--r--", perm)
	}
}
