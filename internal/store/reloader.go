package store

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"sync/atomic"
	"time"
)

// reloadEvery is how often a Reloader stats its file.
const reloadEvery = time.Second

// Reloader serves the snapshot file another process writes. `census
// -snapshot FILE` produces it with a temp file and a rename, so a new
// census shows up as a new file identity (os.SameFile, size, mtime); the
// Reloader then reads it, validates it as OpenSnapshotFile does, and
// publishes it. A file that fails validation never replaces the serving
// snapshot: the rejection is counted and kept as LastError until a good
// file loads, and the same rejected identity is not read again on every
// poll.
type Reloader struct {
	store *Store
	path  string

	// Log, when set, receives one line per load or rejection.
	Log func(format string, args ...any)

	// tried is the identity of the file last opened, loaded or rejected.
	// Only Check touches it.
	tried os.FileInfo

	loads   atomic.Uint64
	rejects atomic.Uint64
	lastErr atomic.Pointer[string]
}

// NewReloader wires a reloader publishing the snapshot file at path into st.
func NewReloader(st *Store, path string) *Reloader {
	return &Reloader{store: st, path: path}
}

// Run checks the file every second until ctx is cancelled. It blocks;
// start it in a goroutine.
func (r *Reloader) Run(ctx context.Context) {
	t := time.NewTicker(reloadEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Check()
		}
	}
}

// Check stats the file once and, when its identity changed since the last
// attempt, opens and publishes it. A missing file is not a rejection: the
// store keeps what it serves (or stays unready) until one appears. Check
// reports whether a snapshot was published; call it from one goroutine.
func (r *Reloader) Check() bool {
	fi, err := os.Stat(r.path)
	if err != nil {
		r.tried = nil
		return false
	}
	if r.tried != nil && sameFile(r.tried, fi) {
		return false
	}
	snap, read, err := openSnapshotFile(r.path)
	if errors.Is(err, fs.ErrNotExist) {
		r.tried = nil
		return false
	}
	r.tried = fi
	if read != nil {
		r.tried = read
	}
	if err != nil {
		r.rejects.Add(1)
		msg := err.Error()
		r.lastErr.Store(&msg)
		r.logf("%v: rejected, still serving version %d", err, r.store.version.Load())
		return false
	}
	v := r.store.Publish(snap)
	r.loads.Add(1)
	r.lastErr.Store(nil)
	r.logf("store: loaded snapshot v%d from %s: %d anycast /24s, %d ASes, %d replicas (census round %d)",
		v, r.path, snap.Len(), snap.ASes(), snap.TotalReplicas(), snap.Round())
	return true
}

// sameFile reports whether a and b describe the same file in the same
// state: one inode (or file index), one size, one modification time.
func sameFile(a, b os.FileInfo) bool {
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// LastError is the reason the most recent file was rejected, or "" when
// the last file opened loaded.
func (r *Reloader) LastError() string {
	if p := r.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

func (r *Reloader) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

// ReloaderStats is a point-in-time copy of the reload counters.
type ReloaderStats struct {
	Loads     uint64 `json:"loads"`
	Rejects   uint64 `json:"rejects"`
	LastError string `json:"last_error,omitempty"`
}

// Stats samples the counters.
func (r *Reloader) Stats() ReloaderStats {
	return ReloaderStats{Loads: r.loads.Load(), Rejects: r.rejects.Load(), LastError: r.LastError()}
}
