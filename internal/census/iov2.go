package census

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// The v2 run format is the census-scale version of Table 1's
// textual-to-binary rewrite, applied a second time: gob+flate spends
// reflection on every row and funnels the whole matrix through one
// single-threaded DEFLATE stream, which is what made run persistence the
// slowest stage of a large campaign. v2 is columnar and explicit instead:
//
//	magic   "ACMR2\n"
//	flags   byte (reserved, 0)
//	meta    uvarint length + gob(runMetaV2)   — small, map-free, stable
//	grey    uvarint count, then per entry: uvarint IP delta (sorted
//	        ascending) + kind byte
//	rows    uvarint nVP, uvarint nTargets, uvarint per-row encoded
//	        lengths, then the concatenated row payloads
//
// Each row is independently decodable — a sample count followed by
// delta/varint (uvarint target-index gap, uvarint RTT µs) pairs — so
// encode and decode both parallelize across GOMAXPROCS row workers.
// Every byte is a pure function of the run (the greylist is sorted, the
// meta holds no maps), so saving the same run twice yields identical
// files; the determinism test compares saved bytes directly.

const runMagicV2 = "ACMR2\n"

// runMetaV2 is the small gob-encoded head of a v2 file: everything except
// the matrix and the greylist. It contains no maps, so its gob bytes are
// deterministic.
type runMetaV2 struct {
	Round   uint64
	VPs     []platform.VP
	Targets []netsim.IP
	Stats   []prober.Stats
	Health  RunHealth
}

// saveRunV2 writes the v2 columnar encoding of the run.
func saveRunV2(w io.Writer, r *Run) error {
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(runMetaV2{
		Round:   r.Round,
		VPs:     r.VPs,
		Targets: r.Targets,
		Stats:   r.Stats,
		Health:  r.Health,
	}); err != nil {
		return fmt.Errorf("census: encode run meta: %w", err)
	}
	rows, err := encodeRowsV2(r.RTTus, len(r.Targets))
	if err != nil {
		return err
	}

	head := append([]byte(runMagicV2), 0) // flags
	head = binary.AppendUvarint(head, uint64(meta.Len()))
	head = append(head, meta.Bytes()...)
	head = AppendGreylist(head, r.Greylist)
	head = binary.AppendUvarint(head, uint64(len(r.RTTus)))
	head = binary.AppendUvarint(head, uint64(len(r.Targets)))
	for _, row := range rows {
		head = binary.AppendUvarint(head, uint64(len(row)))
	}
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("census: %w", err)
	}
	for _, row := range rows {
		if _, err := w.Write(row); err != nil {
			return fmt.Errorf("census: %w", err)
		}
	}
	return nil
}

// AppendGreylist appends g's greylist section — the one layout of a
// greylist in run files and in the cluster's rows and welcome: a uvarint
// count, then per host in ascending address order a uvarint delta from
// the previous address (from 0 for the first) and the kind byte. A nil
// or empty greylist is the single byte 0.
func AppendGreylist(dst []byte, g *prober.Greylist) []byte {
	if g == nil || g.Len() == 0 {
		return append(dst, 0)
	}
	snap := g.Snapshot()
	ips := make([]netsim.IP, 0, len(snap))
	for ip := range snap {
		ips = append(ips, ip)
	}
	slices.Sort(ips)
	dst = binary.AppendUvarint(dst, uint64(len(ips)))
	prev := netsim.IP(0)
	for _, ip := range ips {
		dst = binary.AppendUvarint(dst, uint64(ip-prev))
		dst = append(dst, byte(snap[ip]))
		prev = ip
	}
	return dst
}

// Row payload modes. A census row is dense (~60-80% of targets answer),
// so listing a varint gap per sample wastes ~1 byte/sample; a presence
// bitmap costs a fixed nTargets/8 bytes instead. Sparse rows (quarantined
// VPs, heavy loss) flip back to the gap list. The mode is a pure function
// of the row contents, so the choice never breaks byte determinism.
const (
	rowModeGaps   = 0 // uvarint (gap, value) pairs
	rowModeBitmap = 1 // presence bitmap, then values in index order
)

// encodeRowsV2 encodes every matrix row in parallel. Row payloads are
// independent, so the bytes do not depend on the worker count.
func encodeRowsV2(rttus [][]int32, nTargets int) ([][]byte, error) {
	for vi, row := range rttus {
		if len(row) != nTargets {
			return nil, fmt.Errorf("census: row %d has %d cells for %d targets", vi, len(row), nTargets)
		}
	}
	rows := make([][]byte, len(rttus))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(rttus) {
		workers = len(rttus)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				vi := int(next.Add(1) - 1)
				if vi >= len(rttus) {
					return
				}
				rows[vi] = AppendRow(nil, rttus[vi])
			}
		}()
	}
	wg.Wait()
	return rows, nil
}

// AppendRow appends one row's v2 payload — the row codec of the run
// format and of the cluster's rows frames: mode byte, uvarint sample
// count, then the mode's payload. The mode is a pure function of the
// row (bitmap when the bitmap is no longer than the sample count), and
// with the row's width known the payload delimits itself, so DecodeRow
// needs no length. RTT values above the pipeline's 2^30 µs clamp are
// clamped again here so re-encoding a foreign (legacy) run stays within
// the decoder's bound. Into a buffer with room it allocates nothing: the
// bitmap is set in place.
func AppendRow(dst []byte, row []int32) []byte {
	n := 0
	for _, v := range row {
		if v >= 0 {
			n++
		}
	}
	bitmapLen := (len(row) + 7) / 8
	if bitmapLen <= n {
		// Dense: presence bitmap + values in index order (~3 bytes per
		// sample at census RTT magnitudes, amortized bitmap well under
		// a byte).
		dst = slices.Grow(dst, 1+binary.MaxVarintLen64+bitmapLen+n*4)
		dst = append(dst, rowModeBitmap)
		dst = binary.AppendUvarint(dst, uint64(n))
		bitmap := dst[len(dst) : len(dst)+bitmapLen]
		clear(bitmap)
		dst = dst[:len(dst)+bitmapLen]
		for ti, v := range row {
			if v >= 0 {
				bitmap[ti>>3] |= 1 << (ti & 7)
			}
		}
		for _, v := range row {
			if v >= 0 {
				dst = binary.AppendUvarint(dst, uint64(min(v, 1<<30)))
			}
		}
		return dst
	}
	// Sparse: delta/varint (gap, value) pairs.
	dst = slices.Grow(dst, 1+binary.MaxVarintLen64+n*5)
	dst = append(dst, rowModeGaps)
	dst = binary.AppendUvarint(dst, uint64(n))
	prev := -1
	for ti, v := range row {
		if v < 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(ti-prev))
		dst = binary.AppendUvarint(dst, uint64(min(v, 1<<30)))
		prev = ti
	}
	return dst
}

// loadRunV2 decodes a v2 run; data starts immediately after the magic.
func loadRunV2(data []byte) (*Run, error) {
	b := data
	if len(b) < 1 {
		return nil, fmt.Errorf("census: truncated v2 run header")
	}
	if b[0] != 0 {
		return nil, fmt.Errorf("census: unknown v2 flags 0x%02x", b[0])
	}
	b = b[1:]

	metaLen, b, err := takeUvarint(b, "meta length")
	if err != nil {
		return nil, err
	}
	if metaLen > uint64(len(b)) {
		return nil, fmt.Errorf("census: v2 meta length %d exceeds payload", metaLen)
	}
	var meta runMetaV2
	if err := gob.NewDecoder(bytes.NewReader(b[:metaLen])).Decode(&meta); err != nil {
		return nil, fmt.Errorf("census: decode run meta: %w", err)
	}
	b = b[metaLen:]

	grey, b, err := DecodeGreylist(b)
	if err != nil {
		return nil, err
	}

	nVP, b, err := takeUvarint(b, "row count")
	if err != nil {
		return nil, err
	}
	nT, b, err := takeUvarint(b, "target count")
	if err != nil {
		return nil, err
	}
	if nVP != uint64(len(meta.VPs)) {
		return nil, fmt.Errorf("census: run has %d matrix rows for %d VPs", nVP, len(meta.VPs))
	}
	if nT != uint64(len(meta.Targets)) {
		return nil, fmt.Errorf("census: run has %d-cell rows for %d targets", nT, len(meta.Targets))
	}
	// The guard below caps per-row allocation, but an adversarial header
	// could still claim huge counts; bound them by the payload size first.
	if nVP > uint64(len(b)) {
		return nil, fmt.Errorf("census: v2 row table (%d rows) exceeds payload", nVP)
	}
	lengths := make([]uint64, nVP)
	var totalRows uint64
	for i := range lengths {
		lengths[i], b, err = takeUvarint(b, "row length")
		if err != nil {
			return nil, err
		}
		// Validate each declared length as it arrives: a hostile header
		// could otherwise overflow the uint64 running sum (wrapping past
		// the post-loop check) and panic the row slicing below. Each
		// length is bounded by the remaining payload and the sum by the
		// whole input, so the sum can never wrap.
		if lengths[i] > uint64(len(b)) {
			return nil, fmt.Errorf("census: v2 row %d length %d exceeds payload", i, lengths[i])
		}
		totalRows += lengths[i]
		if totalRows > uint64(len(data)) {
			return nil, fmt.Errorf("census: v2 rows (%d+ bytes) exceed payload (%d)", totalRows, len(data))
		}
	}
	if totalRows > uint64(len(b)) {
		return nil, fmt.Errorf("census: v2 rows (%d bytes) exceed payload (%d)", totalRows, len(b))
	}

	if totalRows < uint64(len(b)) {
		return nil, fmt.Errorf("census: v2 run has %d trailing bytes", uint64(len(b))-totalRows)
	}
	// Cap the dense-matrix allocation before trusting the header: 2^31
	// cells (8 GiB) is far above any real campaign and far below what a
	// forged header could otherwise demand.
	if nVP > 0 && nT > (1<<31)/nVP {
		return nil, fmt.Errorf("census: v2 run claims %d x %d cells, beyond the decoder cap", nVP, nT)
	}

	// Slice each row's payload, then decode rows in parallel into one
	// contiguous backing slab (a single allocation for the whole dense
	// matrix; loaded rows are read-only downstream).
	payloads := make([][]byte, nVP)
	for i, l := range lengths {
		payloads[i], b = b[:l], b[l:]
	}
	slab := make([]int32, nVP*nT)
	rttus := make([][]int32, nVP)
	for vi := range rttus {
		rttus[vi] = slab[uint64(vi)*nT : uint64(vi+1)*nT : uint64(vi+1)*nT]
	}
	decErrs := make([]error, nVP)
	workers := runtime.GOMAXPROCS(0)
	if workers > int(nVP) {
		workers = int(nVP)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				vi := int(next.Add(1) - 1)
				if vi >= int(nVP) {
					return
				}
				rest, err := DecodeRow(payloads[vi], rttus[vi])
				if err == nil && len(rest) != 0 {
					err = fmt.Errorf("census: row has %d trailing bytes", len(rest))
				}
				if err != nil {
					decErrs[vi] = fmt.Errorf("run row %d: %w", vi, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range decErrs {
		if err != nil {
			return nil, err
		}
	}

	return &Run{
		Round:    meta.Round,
		VPs:      meta.VPs,
		Targets:  meta.Targets,
		RTTus:    rttus,
		Stats:    meta.Stats,
		Greylist: grey,
		Health:   meta.Health,
	}, nil
}

// DecodeRow expands the row payload AppendRow wrote at the front of p
// into row, whose length is the row's width, and returns the bytes after
// it. It accepts exactly what AppendRow writes for some row of that width
// — the mode the encoder picks, minimal varints, no bit past the last
// target — so an accepted payload re-encodes byte for byte, and it
// allocates nothing: every count is checked against the width and the
// bytes present.
func DecodeRow(p []byte, row []int32) ([]byte, error) {
	nTargets := len(row)
	if len(p) < 1 {
		return nil, fmt.Errorf("census: row: truncated mode byte")
	}
	mode := p[0]
	n, p, err := takeUvarint(p[1:], "row sample count")
	if err != nil {
		return nil, err
	}
	if n > uint64(nTargets) {
		return nil, fmt.Errorf("census: row claims %d samples for %d targets", n, nTargets)
	}
	bitmapLen := (nTargets + 7) / 8
	want := byte(rowModeGaps) // the mode AppendRow picks for n samples in nTargets cells
	if uint64(bitmapLen) <= n {
		want = rowModeBitmap
	}
	if mode != want {
		return nil, fmt.Errorf("census: row of %d samples in %d cells has mode %d, want %d", n, nTargets, mode, want)
	}

	switch mode {
	case rowModeBitmap:
		if len(p) < bitmapLen {
			return nil, fmt.Errorf("census: row: truncated bitmap")
		}
		bitmap := p[:bitmapLen]
		p = p[bitmapLen:]
		// Bits past nTargets in the last bitmap byte must be clear, or
		// two encodings of the same row could differ. Checked up front so
		// the set-bit walk below never indexes past the row.
		if nTargets%8 != 0 && bitmap[bitmapLen-1]>>(nTargets%8) != 0 {
			return nil, fmt.Errorf("census: row bitmap has bits past the last target")
		}
		// Prefill absent cells with one memmove and visit only set bits:
		// the old walk branched on every target and paid a fastUvarint
		// call per sample, which made v2 decode slower than gob+flate at
		// census scale. Here whole absent bytes cost one compare, and the
		// one- and two-byte varints (every census-scale RTT in µs after
		// zigzag-free delay encoding) decode inline.
		fillNoSample(row)
		seen := uint64(0)
		for bi, bb := range bitmap {
			if bb == 0 {
				continue
			}
			base := bi << 3
			for ; bb != 0; bb &= bb - 1 {
				ti := base + bits.TrailingZeros8(bb)
				var us uint64
				switch {
				case len(p) >= 1 && p[0] < 0x80:
					us = uint64(p[0])
					p = p[1:]
				case len(p) >= 2 && p[1] < 0x80 && p[1] != 0: // a zero here is overlong
					us = uint64(p[0]&0x7F) | uint64(p[1])<<7
					p = p[2:]
				default:
					var err error
					us, p, err = fastUvarint(p)
					if err != nil {
						return nil, fmt.Errorf("census: row sample delay: %w", err)
					}
				}
				if us > 1<<30 {
					return nil, fmt.Errorf("census: row sample delay %d out of range", us)
				}
				row[ti] = int32(us)
				seen++
			}
		}
		if seen != n {
			return nil, fmt.Errorf("census: row bitmap has %d samples, header says %d", seen, n)
		}
	case rowModeGaps:
		// Same trick as bitmap mode: one bulk prefill, then only sampled
		// cells are touched (the old inner loops wrote every skipped cell
		// individually).
		fillNoSample(row)
		ti := -1
		for s := uint64(0); s < n; s++ {
			gap, rest, err := fastUvarint(p)
			if err != nil {
				return nil, fmt.Errorf("census: row sample gap: %w", err)
			}
			us, rest, err := fastUvarint(rest)
			if err != nil {
				return nil, fmt.Errorf("census: row sample delay: %w", err)
			}
			p = rest
			if gap == 0 || gap > uint64(nTargets) {
				return nil, fmt.Errorf("census: row has invalid sample gap %d", gap)
			}
			ti += int(gap)
			if ti >= nTargets {
				return nil, fmt.Errorf("census: row sample index %d out of range", ti)
			}
			if us > 1<<30 {
				return nil, fmt.Errorf("census: row sample delay %d out of range", us)
			}
			row[ti] = int32(us)
		}
	}
	return p, nil
}

// fastUvarint is binary.Uvarint with the one- to four-byte cases (every
// gap and every census-scale RTT in µs) inlined ahead of the generic
// loop. A varint longer than it needs to be is refused, so a decoded
// payload has one encoding.
func fastUvarint(p []byte) (uint64, []byte, error) {
	var v uint64
	var n int
	switch {
	case len(p) >= 1 && p[0] < 0x80:
		return uint64(p[0]), p[1:], nil
	case len(p) >= 2 && p[1] < 0x80:
		v, n = uint64(p[0]&0x7F)|uint64(p[1])<<7, 2
	case len(p) >= 3 && p[2] < 0x80:
		v, n = uint64(p[0]&0x7F)|uint64(p[1]&0x7F)<<7|uint64(p[2])<<14, 3
	case len(p) >= 4 && p[3] < 0x80:
		v, n = uint64(p[0]&0x7F)|uint64(p[1]&0x7F)<<7|uint64(p[2]&0x7F)<<14|uint64(p[3])<<21, 4
	default:
		if v, n = binary.Uvarint(p); n <= 0 {
			return 0, nil, fmt.Errorf("census: truncated or invalid uvarint")
		}
	}
	// n > 1 here: a zero final byte adds nothing to v.
	if p[n-1] == 0 {
		return 0, nil, fmt.Errorf("census: overlong uvarint")
	}
	return v, p[n:], nil
}

// DecodeGreylist parses a greylist section (AppendGreylist) off the
// front of b and returns the rest. Addresses must be strictly ascending
// and every kind an ICMP error that greylists a host
// (netsim.ReplyKind.Greylistable): the section feeds the campaign
// greylist, which becomes the next census's blacklist, so an echo or a
// kind byte nobody defined is refused rather than merged.
func DecodeGreylist(b []byte) (*prober.Greylist, []byte, error) {
	count, b, err := takeUvarint(b, "greylist count")
	if err != nil {
		return nil, nil, err
	}
	// Every entry needs at least 2 bytes (delta + kind).
	if count > uint64(len(b))/2+1 {
		return nil, nil, fmt.Errorf("census: greylist count %d exceeds payload", count)
	}
	ips := make([]netsim.IP, count)
	kinds := make([]netsim.ReplyKind, count)
	prev := uint64(0)
	for i := range ips {
		var delta uint64
		delta, b, err = takeUvarint(b, "greylist delta")
		if err != nil {
			return nil, nil, err
		}
		if delta == 0 && i > 0 {
			return nil, nil, fmt.Errorf("census: greylist repeats address %v", netsim.IP(prev))
		}
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("census: truncated greylist kind")
		}
		kinds[i] = netsim.ReplyKind(b[0])
		b = b[1:]
		if !kinds[i].Greylistable() {
			return nil, nil, fmt.Errorf("census: greylist kind %d is not an ICMP error", kinds[i])
		}
		ip := prev + delta
		if ip > 1<<32-1 {
			return nil, nil, fmt.Errorf("census: greylist address overflows IPv4")
		}
		ips[i] = netsim.IP(ip)
		prev = ip
	}
	return prober.FromSorted(ips, kinds), b, nil
}

// takeUvarint consumes one uvarint from the front of b.
func takeUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("census: truncated, invalid or overlong %s", what)
	}
	return v, b[n:], nil
}
