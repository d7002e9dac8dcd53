package census

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
)

// roundTrip saves the run with save and loads it back.
func roundTrip(t *testing.T, r *Run, save func(w *bytes.Buffer, r *Run) error) *Run {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkRunEqual compares every field LoadRun reconstructs.
func checkRunEqual(t *testing.T, got, want *Run) {
	t.Helper()
	if got.Round != want.Round {
		t.Fatalf("round %d, want %d", got.Round, want.Round)
	}
	if len(got.VPs) != len(want.VPs) || len(got.Targets) != len(want.Targets) {
		t.Fatal("run shape does not round trip")
	}
	for vi := range want.VPs {
		if got.VPs[vi] != want.VPs[vi] {
			t.Fatal("VP does not round trip")
		}
		if got.Stats[vi] != want.Stats[vi] {
			t.Fatal("stats do not round trip")
		}
		if !bytes.Equal(int32Bytes(got.RTTus[vi]), int32Bytes(want.RTTus[vi])) {
			t.Fatalf("row %d does not round trip", vi)
		}
	}
	for ti := range want.Targets {
		if got.Targets[ti] != want.Targets[ti] {
			t.Fatal("target list does not round trip")
		}
	}
	wantSnap := want.Greylist.Snapshot()
	gotSnap := got.Greylist.Snapshot()
	if len(gotSnap) != len(wantSnap) {
		t.Fatalf("greylist %d entries, want %d", len(gotSnap), len(wantSnap))
	}
	for ip, kind := range wantSnap {
		if gotSnap[ip] != kind {
			t.Fatalf("greylist entry %v does not round trip", ip)
		}
	}
	if got.Health.Round != want.Health.Round || got.Health.Completed != want.Health.Completed {
		t.Fatal("health does not round trip")
	}
}

// TestSaveLoadRunV2 round-trips the v2 columnar format on a real census
// run, including an analysis-equivalence check.
func TestSaveLoadRunV2(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	got := roundTrip(t, r1, func(w *bytes.Buffer, r *Run) error { return SaveRun(w, r) })
	checkRunEqual(t, got, r1)

	c1, _ := Combine(r1)
	c2, _ := Combine(got)
	n1 := len(AnalyzeAll(cities.Default(), c1, core.Options{}, 2, 0))
	n2 := len(AnalyzeAll(cities.Default(), c2, core.Options{}, 2, 0))
	if n1 != n2 {
		t.Errorf("loaded run analyzes differently: %d vs %d", n1, n2)
	}
}

// gen1Head is how an archive of the deleted generation-1 gob+DEFLATE
// format starts: a raw DEFLATE stream, no magic.
var gen1Head = []byte{0xbc, 0x78, 0x7f, 0x54, 0x95, 0xe7, 0x95, 0xee, 0xf7, 0xbc, 0xef, 0x77, 0x7e, 0xc1, 0x01, 0x8d}

// TestLoadRunRefusesForeignBytes pins the one-format rule: anything that
// does not start with the v2 magic — a gen-1 archive, input shorter than
// the magic, nothing at all — is an error naming the magic, not a panic
// and not a decoder's complaint about bytes it was never meant to read.
func TestLoadRunRefusesForeignBytes(t *testing.T) {
	for name, data := range map[string][]byte{
		"gen-1 archive": gen1Head,
		"three bytes":   []byte("ACM"),
		"empty":         nil,
		"other magic":   []byte("ACMR9\nwrong magic"),
	} {
		got, err := LoadRun(bytes.NewReader(data))
		if err == nil || got != nil {
			t.Errorf("%s: LoadRun accepted it", name)
			continue
		}
		if !strings.Contains(err.Error(), strconv.Quote(runMagicV2)) {
			t.Errorf("%s: error %q does not name the expected magic", name, err)
		}
	}
}

// TestSaveRunDeterministic pins the satellite: saving the same run twice
// yields identical bytes (the greylist is sorted, the meta holds no
// maps).
func TestSaveRunDeterministic(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	var a, b bytes.Buffer
	if err := SaveRun(&a, r1); err != nil {
		t.Fatal(err)
	}
	if err := SaveRun(&b, r1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("SaveRun is not byte-deterministic")
	}
	if !strings.HasPrefix(a.String(), runMagicV2) {
		t.Fatal("SaveRun does not emit the v2 magic")
	}
}

// TestLoadRunRejectsCorruptV2 exercises the decoder's bounds checks on
// targeted corruptions (the fuzz test covers the long tail).
func TestLoadRunRejectsCorruptV2(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, r1); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic_only", []byte(runMagicV2)},
		{"wrong_magic", []byte("ACMR9\nrest of the file")},
		{"bad_flags", append([]byte(runMagicV2), 0xFF)},
		{"truncated_half", full[:len(full)/2]},
		{"truncated_tail", full[:len(full)-3]},
		{"trailing_garbage", append(append([]byte{}, full...), 1, 2, 3)},
	} {
		if _, err := LoadRun(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: corrupt run accepted", tc.name)
		}
	}
}

// The row codec is the run format's and the rows frame's: DecodeRow reads
// back exactly the row AppendRow wrote, delimits it by the row's width
// alone, and refuses every other encoding of the same row, so an accepted
// payload re-encodes byte for byte. Into a buffer with room AppendRow
// allocates nothing.
func TestRowCodecCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 300; i++ {
		row := make([]int32, rng.Intn(300))
		density := rng.Float64()
		for ti := range row {
			row[ti] = NoSample
			if rng.Float64() < density {
				row[ti] = rng.Int31n(1 << 30)
			}
		}
		p := AppendRow(nil, row)
		got := make([]int32, len(row))
		rest, err := DecodeRow(append(p, "tail"...), got)
		if err != nil || string(rest) != "tail" || !slices.Equal(got, row) {
			t.Fatalf("row %d (%d cells): rest %q, %v", i, len(row), rest, err)
		}
	}
	// Two samples in 16 cells: the bitmap (2 bytes) is no longer than the
	// sample count, so the encoder picks it.
	row := []int32{5, NoSample, NoSample, NoSample, NoSample, NoSample, NoSample, NoSample,
		NoSample, NoSample, NoSample, NoSample, NoSample, NoSample, NoSample, 300}
	want := AppendRow(nil, row)
	if _, err := DecodeRow(want, make([]int32, 16)); err != nil || want[0] != rowModeBitmap {
		t.Fatalf("canonical row %v refused: %v", want, err)
	}
	for name, p := range map[string][]byte{
		"gap mode for a dense row":  {rowModeGaps, 2, 1, 5, 15, 0xAC, 0x02},
		"bitmap mode for a sparse":  {rowModeBitmap, 1, 1, 0, 5}, // one sample in 16 cells
		"overlong sample count":     append([]byte{rowModeBitmap, 0x82, 0x00}, want[2:]...),
		"overlong sample delay":     {rowModeBitmap, 2, 1, 0x80, 0x85, 0x00, 0xAC, 0x02},
		"unknown mode":              append([]byte{2}, want[1:]...),
		"bits past the last target": {rowModeBitmap, 2, 1, 0x80, 5, 0xAC, 0x02},
	} {
		cells := 16
		if name == "bits past the last target" {
			cells = 15
		}
		if _, err := DecodeRow(p, make([]int32, cells)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(50, func() { buf = AppendRow(buf[:0], row) }); n != 0 {
		t.Fatalf("AppendRow into a buffer with room allocates %v times", n)
	}
}
