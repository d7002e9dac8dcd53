package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
	"unsafe"

	"anycastmap/internal/census"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
)

// snapfile.go — the versioned on-disk snapshot format and its mmap-backed
// reader.
//
// A census campaign's product — the anycast map — is rebuilt in minutes
// but served for hours, and at paper scale the build happens on a census
// box while the serving daemon wants to boot instantly and stay light.
// The snapshot file makes the product a first-class artifact: one
// little-endian, CRC-guarded, page-aligned-friendly file whose prefix
// index is binary-searchable *in place*. anycastd maps it read-only:
// serving needs no up-front decode (entries decode lazily, one at a time,
// on first lookup) and no resident heap proportional to the census — the
// kernel page cache owns the bytes.
//
// Layout (all integers little-endian):
//
//	off 0   magic "ACMSNAP1" (8 bytes)
//	    8   u32 format version (1)
//	    12  u32 entry count
//	    16  u64 round
//	    24  u32 rounds combined
//	    28  u32 distinct ASes
//	    32  i64 builtAt (unix nanoseconds)
//	    40  u64 total replicas
//	    48  u32 health blob length (gob census.CampaignHealth)
//	    52  u32 entries blob length
//	    56  u32 reserved (0)
//	    60  u32 IEEE CRC32 of everything past the 64-byte header
//	    64  health blob, padded to 4-byte alignment
//	        prefixes: count × u32, sorted ascending (the search index)
//	        offsets:  (count+1) × u32 into the entries blob
//	        entries blob
//
// The prefix array and offset table are 4-byte aligned by construction,
// so on little-endian hosts the reader casts the mapped bytes straight to
// []Prefix24 / []uint32 — zero copy, zero decode. Big-endian hosts fall
// back to a decoded copy of the two index arrays (entries still decode
// lazily from the map).

// SnapshotFileMagic leads every snapshot file.
const SnapshotFileMagic = "ACMSNAP1"

const (
	snapFileVersion   = 1
	snapHeaderLen     = 64
	snapMaxFileBytes  = 1 << 34 // 16 GiB: far beyond any real map, stops hostile headers
	snapMaxEntryCount = 1 << 28
)

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapping owns one mmap'd (or, off unix, heap-read) snapshot file and
// refcounts its readers. The owner reference is held by the Snapshot and
// dropped by Close; lookups pin the mapping with acquire/release around
// raw-memory access. The last release unmaps, so a hot-swap never yanks
// pages out from under an in-flight reader.
type mapping struct {
	data   []byte
	mapped bool // true when data needs munmap
	refs   atomic.Int64
}

// acquire takes a reader reference; it fails only after the last
// reference died (the mapping is gone and a newer snapshot must be live).
func (m *mapping) acquire() bool {
	for {
		r := m.refs.Load()
		if r <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release drops one reference, unmapping on the last.
func (m *mapping) release() {
	if m.refs.Add(-1) == 0 && m.mapped {
		munmapFile(m.data)
		m.data = nil
	}
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putStr(b *bytes.Buffer, s string) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(s)))
	b.Write(tmp[:n])
	b.WriteString(s)
}

func putUv(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

// encodeSnapEntry appends one entry's blob encoding (everything except
// the prefix, which lives in the index array).
func encodeSnapEntry(b *bytes.Buffer, e *Entry) error {
	if e.ASN < 0 || e.Replicas < 0 {
		return fmt.Errorf("store: entry %v has negative ASN or replica count", e.Prefix)
	}
	putUv(b, uint64(e.ASN))
	putUv(b, uint64(e.Replicas))
	putStr(b, e.ASName)
	putStr(b, e.Category)
	putUv(b, uint64(len(e.Cities)))
	for _, c := range e.Cities {
		putStr(b, c)
	}
	putUv(b, uint64(len(e.Instances)))
	for _, in := range e.Instances {
		var flags byte
		if in.Located {
			flags |= 1
		}
		b.WriteByte(flags)
		var tmp [16]byte
		binary.LittleEndian.PutUint64(tmp[0:], math.Float64bits(in.Lat))
		binary.LittleEndian.PutUint64(tmp[8:], math.Float64bits(in.Lon))
		b.Write(tmp[:])
		putStr(b, in.ViaVP)
		putStr(b, in.City)
		putStr(b, in.CC)
	}
	return nil
}

func takeUv(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("store: truncated or invalid %s", what)
	}
	return v, p[n:], nil
}

func takeStr(p []byte, what string) (string, []byte, error) {
	n, p, err := takeUv(p, what)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(p)) {
		return "", nil, fmt.Errorf("store: %s length %d exceeds payload", what, n)
	}
	// string() copies: nothing decoded here may point into the mapping,
	// or cached entries would dangle after the unmap.
	return string(p[:n]), p[n:], nil
}

// decodeSnapEntry parses one entry blob into a fully heap-owned Entry.
// Derived fields (the cached prefix string, instance unit vectors) are
// recomputed here exactly as NewSnapshot computes them, so a decoded
// entry is deep-equal to its heap-built twin.
func decodeSnapEntry(p []byte, prefix netsim.Prefix24) (*Entry, error) {
	e := &Entry{Prefix: prefix, prefixStr: prefix.String()}
	var v uint64
	var err error
	if v, p, err = takeUv(p, "entry ASN"); err != nil {
		return nil, err
	}
	if v > 1<<31 {
		return nil, fmt.Errorf("store: entry ASN %d out of range", v)
	}
	e.ASN = int(v)
	if v, p, err = takeUv(p, "entry replicas"); err != nil {
		return nil, err
	}
	if v > 1<<31 {
		return nil, fmt.Errorf("store: entry replica count %d out of range", v)
	}
	e.Replicas = int(v)
	if e.ASName, p, err = takeStr(p, "entry AS name"); err != nil {
		return nil, err
	}
	if e.Category, p, err = takeStr(p, "entry category"); err != nil {
		return nil, err
	}
	var n uint64
	if n, p, err = takeUv(p, "entry city count"); err != nil {
		return nil, err
	}
	if n > uint64(len(p)) {
		return nil, fmt.Errorf("store: entry city count %d exceeds payload", n)
	}
	if n > 0 {
		e.Cities = make([]string, n)
		for i := range e.Cities {
			if e.Cities[i], p, err = takeStr(p, "entry city"); err != nil {
				return nil, err
			}
		}
	}
	if n, p, err = takeUv(p, "entry instance count"); err != nil {
		return nil, err
	}
	// Every instance costs at least 17 bytes (flags + two f64s).
	if n > uint64(len(p))/17+1 {
		return nil, fmt.Errorf("store: entry instance count %d exceeds payload", n)
	}
	if n > 0 {
		e.Instances = make([]Instance, n)
		for i := range e.Instances {
			in := &e.Instances[i]
			if len(p) < 17 {
				return nil, fmt.Errorf("store: truncated entry instance")
			}
			in.Located = p[0]&1 != 0
			in.Lat = math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
			in.Lon = math.Float64frombits(binary.LittleEndian.Uint64(p[9:]))
			in.vec = geo.UnitVec(geo.Coord{Lat: in.Lat, Lon: in.Lon})
			p = p[17:]
			if in.ViaVP, p, err = takeStr(p, "instance VP"); err != nil {
				return nil, err
			}
			if in.City, p, err = takeStr(p, "instance city"); err != nil {
				return nil, err
			}
			if in.CC, p, err = takeStr(p, "instance cc"); err != nil {
				return nil, err
			}
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("store: entry has %d trailing bytes", len(p))
	}
	return e, nil
}

// WriteSnapshot serializes the snapshot in the on-disk format. The bytes
// are a pure function of the snapshot's contents. Works for both heap and
// mapped snapshots (re-encoding a mapped one decodes each entry once).
func WriteSnapshot(buf *bytes.Buffer, s *Snapshot) error {
	var health bytes.Buffer
	if err := gob.NewEncoder(&health).Encode(s.health); err != nil {
		return fmt.Errorf("store: encoding snapshot health: %w", err)
	}

	var entries bytes.Buffer
	offsets := make([]uint32, 0, len(s.prefixes)+1)
	for i := range s.prefixes {
		offsets = append(offsets, uint32(entries.Len()))
		e := s.entryAt(i)
		if e == nil {
			return fmt.Errorf("store: entry %d is unreadable", i)
		}
		if err := encodeSnapEntry(&entries, e); err != nil {
			return err
		}
		if int64(entries.Len()) > 1<<31 {
			return fmt.Errorf("store: entries blob exceeds 2 GiB")
		}
	}
	offsets = append(offsets, uint32(entries.Len()))

	var payload bytes.Buffer
	payload.Write(health.Bytes())
	for payload.Len()%4 != 0 {
		payload.WriteByte(0)
	}
	for _, p := range s.prefixes {
		putU32(&payload, uint32(p))
	}
	for _, o := range offsets {
		putU32(&payload, o)
	}
	payload.Write(entries.Bytes())

	hdr := make([]byte, snapHeaderLen)
	copy(hdr, SnapshotFileMagic)
	binary.LittleEndian.PutUint32(hdr[8:], snapFileVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(s.prefixes)))
	binary.LittleEndian.PutUint64(hdr[16:], s.round)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(s.rounds))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(s.ases))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(s.builtAt.UnixNano()))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(s.totalReplicas))
	binary.LittleEndian.PutUint32(hdr[48:], uint32(health.Len()))
	binary.LittleEndian.PutUint32(hdr[52:], uint32(entries.Len()))
	binary.LittleEndian.PutUint32(hdr[60:], crc32.ChecksumIEEE(payload.Bytes()))

	buf.Write(hdr)
	buf.Write(payload.Bytes())
	return nil
}

// SaveSnapshotFile writes the snapshot atomically: a temp file in the
// same directory, synced, then renamed over path. A reader (or a crash)
// never observes a half-written snapshot, and an old mapping of the
// replaced file stays valid — the rename unlinks the name, not the pages.
func SaveSnapshotFile(path string, s *Snapshot) error {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// OpenSnapshotFile maps a snapshot file for serving. The whole file is
// validated before the snapshot escapes — magic, version, region bounds,
// CRC, offset monotonicity — so a truncated or corrupt file is rejected
// here, never after a hot-swap. The returned snapshot serves lookups
// straight off the page cache: the prefix index binary-searches the
// mapped bytes and entries decode lazily on first access. Close it (or
// let Store.Publish close it on replacement) to drop the owner reference.
func OpenSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < snapHeaderLen {
		return nil, fmt.Errorf("store: snapshot file %s: %d bytes is shorter than the header", path, fi.Size())
	}
	if fi.Size() > snapMaxFileBytes {
		return nil, fmt.Errorf("store: snapshot file %s: %d bytes exceeds the %d cap", path, fi.Size(), int64(snapMaxFileBytes))
	}
	data, mapped, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("store: mapping snapshot file %s: %w", path, err)
	}
	snap, err := openSnapshotBytes(data, mapped)
	if err != nil {
		if mapped {
			munmapFile(data)
		}
		return nil, fmt.Errorf("store: snapshot file %s: %w", path, err)
	}
	return snap, nil
}

// openSnapshotBytes validates an in-memory snapshot image and builds the
// serving Snapshot over it.
func openSnapshotBytes(data []byte, mapped bool) (*Snapshot, error) {
	if len(data) < snapHeaderLen || string(data[:8]) != SnapshotFileMagic {
		return nil, fmt.Errorf("not a snapshot file")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapFileVersion {
		return nil, fmt.Errorf("unsupported snapshot format version %d", v)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	round := binary.LittleEndian.Uint64(data[16:])
	rounds := binary.LittleEndian.Uint32(data[24:])
	ases := binary.LittleEndian.Uint32(data[28:])
	builtNanos := int64(binary.LittleEndian.Uint64(data[32:]))
	totalReplicas := binary.LittleEndian.Uint64(data[40:])
	healthLen := binary.LittleEndian.Uint32(data[48:])
	entriesLen := binary.LittleEndian.Uint32(data[52:])
	wantCRC := binary.LittleEndian.Uint32(data[60:])

	if count > snapMaxEntryCount || totalReplicas > 1<<40 || rounds > 1<<20 {
		return nil, fmt.Errorf("snapshot header out of range (%d entries)", count)
	}
	healthPad := (4 - healthLen%4) % 4
	want := uint64(snapHeaderLen) + uint64(healthLen) + uint64(healthPad) +
		4*uint64(count) + 4*uint64(count+1) + uint64(entriesLen)
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("snapshot is %d bytes, header describes %d (truncated or trailing garbage)", len(data), want)
	}
	if got := crc32.ChecksumIEEE(data[snapHeaderLen:]); got != wantCRC {
		return nil, fmt.Errorf("snapshot payload CRC mismatch (file %08x, computed %08x)", wantCRC, got)
	}

	var health census.CampaignHealth
	healthBlob := data[snapHeaderLen : snapHeaderLen+healthLen]
	if err := gob.NewDecoder(bytes.NewReader(healthBlob)).Decode(&health); err != nil {
		return nil, fmt.Errorf("decoding snapshot health: %w", err)
	}

	prefOff := uint64(snapHeaderLen) + uint64(healthLen) + uint64(healthPad)
	offOff := prefOff + 4*uint64(count)
	blobOff := offOff + 4*uint64(count+1)

	var prefixes []netsim.Prefix24
	var offsets []uint32
	if hostLittleEndian {
		// Zero-copy views into the mapping: Prefix24 and the offsets are
		// u32, the regions are 4-aligned by construction, and the file is
		// little-endian — binary search reads the page cache directly.
		if count > 0 {
			prefixes = unsafe.Slice((*netsim.Prefix24)(unsafe.Pointer(&data[prefOff])), count)
		}
		offsets = unsafe.Slice((*uint32)(unsafe.Pointer(&data[offOff])), count+1)
	} else {
		prefixes = make([]netsim.Prefix24, count)
		for i := range prefixes {
			prefixes[i] = netsim.Prefix24(binary.LittleEndian.Uint32(data[prefOff+4*uint64(i):]))
		}
		offsets = make([]uint32, count+1)
		for i := range offsets {
			offsets[i] = binary.LittleEndian.Uint32(data[offOff+4*uint64(i):])
		}
	}
	for i := 0; i < int(count); i++ {
		if prefixes != nil && i > 0 && prefixes[i] <= prefixes[i-1] {
			return nil, fmt.Errorf("snapshot prefixes not strictly ascending at %d", i)
		}
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("snapshot entry offsets not monotone at %d", i)
		}
	}
	if offsets[0] != 0 || offsets[count] != entriesLen {
		return nil, fmt.Errorf("snapshot entry offsets disagree with blob length")
	}

	m := &mapping{data: data, mapped: mapped}
	m.refs.Store(1) // the owner reference, dropped by Close
	s := &Snapshot{
		round:         round,
		rounds:        int(rounds),
		builtAt:       time.Unix(0, builtNanos),
		health:        health,
		prefixes:      prefixes,
		ases:          int(ases),
		totalReplicas: int(totalReplicas),
		m:             m,
		entryOff:      offsets,
		entriesBlob:   data[blobOff:],
		lazy:          make([]atomic.Pointer[Entry], count),
	}
	return s, nil
}
