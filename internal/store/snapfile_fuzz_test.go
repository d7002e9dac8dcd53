package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// An open may allocate fuzzAllocFactor bytes per input byte plus
// fuzzAllocSlack: the densest honest image - entries of empty city names,
// one blob byte per 16-byte string header - decodes to ~16 heap bytes per
// file byte, and the gob decoder of the health blob costs a fixed few tens
// of KiB. A header that makes the reader size anything by a field it has
// not checked against the file (2^28 entries is a 32 GiB entry table) is
// three orders of magnitude past this.
const (
	fuzzAllocFactor = 128
	fuzzAllocSlack  = 1 << 20
)

// resealed returns the image with its header CRC recomputed, so that a
// mutated payload reaches the validation behind the checksum - region
// bounds, the health gob, index order, entry decoding - which a fuzzer
// cannot forge a CRC32 to get to.
func resealed(image []byte) []byte {
	if len(image) < snapHeaderLen {
		return image
	}
	out := append([]byte(nil), image...)
	binary.LittleEndian.PutUint32(out[60:], crc32.ChecksumIEEE(out[snapHeaderLen:]))
	return out
}

// fuzzSeedImage is a small valid snapshot file with a fixed build time.
func fuzzSeedImage(t testing.TB, entries int) []byte {
	snap := testSnapshot(t, entries)
	snap.builtAt = time.Unix(1425168000, 0) // March 2015
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenSnapshotBytes feeds arbitrary bytes to the snapshot file reader,
// as given and resealed. It must never panic, never allocate beyond a
// multiple of the input length, and whatever it accepts must survive
// WriteSnapshot -> openSnapshotBytes with deep-equal entries.
func FuzzOpenSnapshotBytes(f *testing.F) {
	// Valid images in whatever the format is today; testdata/fuzz holds
	// the named fixtures, damaged ones included.
	f.Add(fuzzSeedImage(f, 0))
	f.Add(fuzzSeedImage(f, 1))
	f.Add(fuzzSeedImage(f, 5))
	f.Fuzz(func(t *testing.T, image []byte) {
		fuzzOpenSnapshot(t, image)
		if sealed := resealed(image); !bytes.Equal(sealed, image) {
			fuzzOpenSnapshot(t, sealed)
		}
	})
}

func fuzzOpenSnapshot(t *testing.T, image []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := openSnapshotBytes(image)
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocFactor*len(image)+fuzzAllocSlack); grew > limit {
		t.Fatalf("opening a %d-byte image allocated %d bytes, limit %d", len(image), grew, limit)
	}
	if err != nil {
		return
	}

	var again bytes.Buffer
	if err := WriteSnapshot(&again, s); err != nil {
		t.Fatalf("WriteSnapshot of an accepted snapshot: %v", err)
	}
	s2, err := openSnapshotBytes(again.Bytes())
	if err != nil {
		t.Fatalf("re-written snapshot does not open: %v", err)
	}
	if s2.Len() != s.Len() || s2.Round() != s.Round() || s2.Rounds() != s.Rounds() || s2.ASes() != s.ASes() ||
		s2.TotalReplicas() != s.TotalReplicas() || !s2.BuiltAt().Equal(s.BuiltAt()) || !reflect.DeepEqual(s2.Health(), s.Health()) {
		t.Fatalf("metadata changed over a round trip: %d entries, round %d/%d, health %+v became %d entries, round %d/%d, health %+v",
			s.Len(), s.Round(), s.Rounds(), s.Health(), s2.Len(), s2.Round(), s2.Rounds(), s2.Health())
	}
	// NaN coordinates are legal bytes and equal nothing, themselves
	// included: for those the comparison is of the bytes written.
	entries := s.Entries()
	if got := s2.Entries(); !reflect.DeepEqual(got, entries) {
		var third bytes.Buffer
		if err := WriteSnapshot(&third, s2); err != nil || !hasNaN(entries) || !bytes.Equal(third.Bytes(), again.Bytes()) {
			t.Fatalf("entries changed over a round trip:\n%+v\n%+v", entries, got)
		}
	}
}

func hasNaN(entries []Entry) bool {
	for _, e := range entries {
		for _, in := range e.Instances {
			if math.IsNaN(in.Lat) || math.IsNaN(in.Lon) {
				return true
			}
		}
	}
	return false
}
