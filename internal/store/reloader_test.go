package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTestSnapshot writes an n-entry synthetic snapshot to path.
func writeTestSnapshot(t *testing.T, path string, n int) {
	t.Helper()
	if err := SaveSnapshotFile(path, testSnapshot(t, n)); err != nil {
		t.Fatal(err)
	}
}

// overwrite replaces path's bytes in place, the non-atomic write a
// careless operator (or a crash mid-copy) leaves behind.
func overwrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// entryBlobOffset is where a snapshot image's entries blob starts: past
// the header, the padded health blob, the prefixes and the offsets.
func entryBlobOffset(t *testing.T, image []byte) int {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(image[12:]))
	health := int(binary.LittleEndian.Uint32(image[48:]))
	off := snapHeaderLen + (health+3)/4*4 + 4*count + 4*(count+1)
	if off >= len(image) {
		t.Fatalf("image of %d bytes has no entries blob past %d", len(image), off)
	}
	return off
}

// A file that fails to open never replaces the serving snapshot: the
// rejection is counted, /healthz stays 200 but degraded and quotes the
// reason, and the next good file clears it.
func TestReloadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	writeTestSnapshot(t, path, 4)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := New(Options{})
	rl := NewReloader(st, path)
	if !rl.Check() {
		t.Fatalf("good file not loaded: %v", rl.LastError())
	}
	a := NewAPI(st, rl, APIConfig{})

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x10
	// A CRC-valid file whose first entry's ASN is a run of continuation
	// bytes: every check but the entry decode passes. It holds three
	// entries, so its size tells it apart from the bit-flipped file
	// written just before it.
	var three bytes.Buffer
	if err := WriteSnapshot(&three, testSnapshot(t, 3)); err != nil {
		t.Fatal(err)
	}
	undecodable := three.Bytes()
	copy(undecodable[entryBlobOffset(t, undecodable):], bytes.Repeat([]byte{0xff}, 5))
	undecodable = resealed(undecodable)
	for i, tc := range []struct {
		name   string
		data   []byte
		reason string
	}{
		{"truncated", good[:len(good)-7], "truncated"},
		{"bit-flipped", flipped, "CRC"},
		{"undecodable-entry", undecodable, "entry 0 (10.10.0.0/24)"},
	} {
		overwrite(t, path, tc.data)
		if rl.Check() {
			t.Fatalf("%s file published", tc.name)
		}
		if rs := rl.Stats(); rs.Rejects != uint64(i+1) || rs.Loads != 1 {
			t.Errorf("%s: reloader stats = %+v", tc.name, rs)
		}
		for _, ip := range []string{"10.10.0.7", "10.10.2.7"} {
			rec, body := doJSON(t, a, http.MethodGet, "/v1/lookup?ip="+ip, "")
			if rec.Code != http.StatusOK || body["anycast"] != true || body["snapshot_version"] != float64(1) {
				t.Errorf("%s: old version stopped answering %s: %d %v", tc.name, ip, rec.Code, body)
			}
		}
		rec, body := doJSON(t, a, http.MethodGet, "/healthz", "")
		reason, _ := body["reload_error"].(string)
		if rec.Code != http.StatusOK || body["status"] != "degraded" || !strings.Contains(reason, tc.reason) {
			t.Errorf("%s: /healthz = %d %v, want 200 degraded quoting %q", tc.name, rec.Code, body, tc.reason)
		}
	}

	writeTestSnapshot(t, path, 5)
	if !rl.Check() {
		t.Fatalf("good file after rejections not loaded: %v", rl.LastError())
	}
	rec, body := doJSON(t, a, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK || body["status"] != "ok" || body["version"] != float64(2) {
		t.Errorf("/healthz after a good file = %d %v", rec.Code, body)
	}
	if _, ok := body["reload_error"]; ok {
		t.Errorf("reload error not cleared: %v", body)
	}
	_, body = doJSON(t, a, http.MethodGet, "/v1/stats", "")
	if rs := body["reloader"].(map[string]any); rs["loads"] != float64(2) || rs["rejects"] != float64(3) || rs["last_error"] != nil {
		t.Errorf("/v1/stats reloader = %v", rs)
	}
}

// A rejected file is opened once, not on every poll; only a new identity
// (here: a different size) is tried again.
func TestReloadRejectedIdentityNotRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	overwrite(t, path, []byte("not a snapshot"))
	st := New(Options{})
	rl := NewReloader(st, path)
	for range 5 {
		rl.Check()
	}
	if rs := rl.Stats(); rs.Rejects != 1 || rs.Loads != 0 {
		t.Fatalf("five polls of one bad file: %+v", rs)
	}
	overwrite(t, path, []byte("still not a snapshot"))
	rl.Check()
	rl.Check()
	if rs := rl.Stats(); rs.Rejects != 2 {
		t.Fatalf("a changed bad file was not retried once: %+v", rs)
	}
	if st.Ready() {
		t.Fatal("garbage published")
	}
}

// Without a file the server answers 503 "starting"; a missing file is
// not a rejection, and the first file that appears makes it ready.
func TestReloadMissingFileThenReady(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	st := New(Options{})
	rl := NewReloader(st, path)
	a := NewAPI(st, rl, APIConfig{})
	if rl.Check() {
		t.Fatal("a missing file published")
	}
	rec, body := doJSON(t, a, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Errorf("/healthz without a file = %d %v, want 503 starting", rec.Code, body)
	}
	if rs := rl.Stats(); rs.Rejects != 0 || rs.LastError != "" {
		t.Errorf("a missing file counted as a rejection: %+v", rs)
	}
	writeTestSnapshot(t, path, 3)
	if !rl.Check() {
		t.Fatalf("file not loaded: %v", rl.LastError())
	}
	rec, body = doJSON(t, a, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("/healthz once the file exists = %d %v", rec.Code, body)
	}
}

// Run polls on its own: a file written after it starts is served within
// a few polls, and cancelling the context stops it.
func TestReloaderRunStopsOnCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	st := New(Options{})
	rl := NewReloader(st, path)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		rl.Run(ctx)
		close(done)
	}()
	writeTestSnapshot(t, path, 2)
	deadline := time.Now().Add(10 * reloadEvery)
	for !st.Ready() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !st.Ready() {
		t.Fatal("Run never loaded the file")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

// The served bytes are the server's own: a non-atomic write over the
// served file (cp, cat >) neither changes the answers nor faults readers
// of the loaded version, whose mapping would otherwise be the rewritten
// and truncated inode.
func TestReloadSurvivesInPlaceOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := SaveSnapshotFile(path, testSnapshot(t, 2048)); err != nil {
		t.Fatal(err)
	}
	st := New(Options{})
	rl := NewReloader(st, path)
	if !rl.Check() {
		t.Fatal(rl.LastError())
	}
	want := st.Current().Entries()
	overwrite(t, path, []byte("not a snapshot"))
	for _, e := range want {
		ans := st.Lookup(e.Prefix.Host(9))
		if !ans.Anycast || ans.Entry.ASN != e.ASN || ans.Version != 1 {
			t.Fatalf("%v after an in-place overwrite: %+v", e.Prefix, ans)
		}
	}
	if rl.Check() || rl.Stats().Rejects != 1 {
		t.Errorf("overwritten file: %+v", rl.Stats())
	}
}
