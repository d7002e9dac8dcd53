package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"anycastmap/internal/store"
)

// A census continues the round numbers of the snapshot file it replaces,
// starts at round 1 only when there is no file, and refuses any other
// file rather than overwriting it.
func TestFirstRound(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "map.snap")
	if err := store.SaveSnapshotFile(snap, store.NewSnapshot(nil, nil, 7, 2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		path string
		want uint64
	}{
		{"no snapshot", "", 1},
		{"missing file", filepath.Join(dir, "absent.snap"), 1},
		{"earlier snapshot", snap, 8},
	} {
		if got, err := firstRound(tc.path); err != nil || got != tc.want {
			t.Errorf("%s: firstRound = %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}

	notes := filepath.Join(dir, "notes.txt")
	text := []byte("these notes are not a snapshot.\n")
	if err := os.WriteFile(notes, text, 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "torn.snap")
	if err := os.WriteFile(tornPath, torn[:len(torn)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{notes, tornPath, dir} {
		if got, err := firstRound(path); err == nil {
			t.Errorf("firstRound(%s) = %d, want an error", filepath.Base(path), got)
		}
	}
	if got, err := os.ReadFile(notes); err != nil || !bytes.Equal(got, text) {
		t.Errorf("notes.txt changed: %q, %v", got, err)
	}
}
