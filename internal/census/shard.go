package census

import (
	"encoding/binary"
	"fmt"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// This file is the distributed data path of the census: the shard frame
// (the unit of work a cluster coordinator leases to a vantage-point agent
// and the unit of result it streams back) and the round-scoped fold entry
// points that merge partial rows into the combined matrix.
//
// The paper's census was always a distributed system — hundreds of
// PlanetLab vantage points uploading measurements to one repository
// (Fig. 1) — and the shard frame is that upload, made incremental: one
// vantage point's row over one contiguous target span [Lo, Hi), encoded
// with the same hybrid bitmap/gap-list row codec and sorted delta-varint
// greylist section as the v2 run format (iov2.go), so the wire bytes are
// deterministic and decode hardening is shared with the archive path.
//
// Correctness under distribution rests on the fold algebra: the per-cell
// combine is min(), which is commutative, associative, and idempotent,
// and the greylist merge is a set union. Shards from different agents may
// therefore arrive in any order, be duplicated by re-leases after an
// agent loss, or interleave across vantage points, and the combined
// matrix still comes out byte-identical to the single-process
// Campaign.FoldRun path (TestFoldShardMatchesFoldRun,
// TestFoldShardOrderInvariance).

// NoSample is the exported sentinel for an absent echo sample in a shard
// row; the latency matrices use the same value internally.
const NoSample = noSample

// ShardFrameMagic is the leading bytes of an encoded shard frame:
//
//	magic   "ACMS1\n"
//	flags   byte (reserved, 0)
//	round   uvarint
//	lo      uvarint — first target index of the span
//	width   uvarint — span width in targets (hi = lo + width)
//	grey    uvarint count, then per entry: uvarint IP delta (sorted
//	        ascending) + kind byte (the v2 greylist section)
//	rows    uvarint count, then per row: uvarint combined slot, seven
//	        uvarint stats (sent, echo, errors, timeouts, source-dropped,
//	        fault-lost, completion ns), uvarint payload length; then the
//	        concatenated v2 row payloads, each width cells wide
const ShardFrameMagic = "ACMS1\n"

// ShardStats is the per-(VP, shard) slice of a probing run's statistics,
// carried on the wire without the embedded platform.VP of prober.Stats.
type ShardStats struct {
	Sent          int
	Echo          int
	Errors        int
	Timeouts      int
	SourceDropped int
	FaultLost     int
	Completion    time.Duration
}

// ShardStatsOf projects a prober run's statistics onto the wire shape.
func ShardStatsOf(s prober.Stats) ShardStats {
	return ShardStats{
		Sent:          s.Sent,
		Echo:          s.Echo,
		Errors:        s.Errors,
		Timeouts:      s.Timeouts,
		SourceDropped: s.SourceDropped,
		FaultLost:     s.FaultLost,
		Completion:    s.Completion,
	}
}

// ShardRows is a partial census result: one or more vantage points' rows
// over the contiguous target span [Lo, Hi) of one round. Slots index the
// campaign's combined matrix (the slot assignment BeginRound returned);
// RTTus rows are Hi-Lo cells wide with NoSample marking unanswered
// targets. Stats, when present, parallels Slots. Greylist carries the
// ICMP-error discoveries made while probing the span.
type ShardRows struct {
	Round    uint64
	Lo, Hi   int
	Slots    []int
	RTTus    [][]int32
	Stats    []ShardStats
	Greylist *prober.Greylist
}

// Encode serializes the shard frame: AppendEncode(nil).
func (sr *ShardRows) Encode() ([]byte, error) { return sr.AppendEncode(nil) }

// AppendEncode appends the encoded shard frame to dst. The bytes are a
// pure function of the contents (rows use the deterministic v2 row codec,
// the greylist is sorted), so encoding the same shard twice yields
// identical frames. The shard is validated before anything is appended;
// into a buffer with room, encoding a shard with an empty greylist
// allocates nothing.
func (sr *ShardRows) AppendEncode(dst []byte) ([]byte, error) {
	width := sr.Hi - sr.Lo
	if sr.Lo < 0 || width < 0 {
		return nil, fmt.Errorf("census: shard frame span [%d,%d) invalid", sr.Lo, sr.Hi)
	}
	if len(sr.RTTus) != len(sr.Slots) {
		return nil, fmt.Errorf("census: shard frame has %d rows for %d slots", len(sr.RTTus), len(sr.Slots))
	}
	if len(sr.Stats) != 0 && len(sr.Stats) != len(sr.Slots) {
		return nil, fmt.Errorf("census: shard frame has %d stats for %d slots", len(sr.Stats), len(sr.Slots))
	}
	for i, row := range sr.RTTus {
		if len(row) != width {
			return nil, fmt.Errorf("census: shard row %d has %d cells for width %d", i, len(row), width)
		}
		if sr.Slots[i] < 0 {
			return nil, fmt.Errorf("census: shard row %d has negative slot %d", i, sr.Slots[i])
		}
		st := sr.stats(i)
		if min(st.Sent, st.Echo, st.Errors, st.Timeouts, st.SourceDropped, st.FaultLost) < 0 {
			return nil, fmt.Errorf("census: shard row %d has negative stats", i)
		}
		if st.Completion < 0 {
			return nil, fmt.Errorf("census: shard row %d has negative completion", i)
		}
	}

	dst = append(dst, ShardFrameMagic...)
	dst = append(dst, 0) // flags
	dst = binary.AppendUvarint(dst, sr.Round)
	dst = binary.AppendUvarint(dst, uint64(sr.Lo))
	dst = binary.AppendUvarint(dst, uint64(width))
	dst = AppendGreylist(dst, sr.Greylist)
	dst = binary.AppendUvarint(dst, uint64(len(sr.Slots)))
	for i, slot := range sr.Slots {
		st := sr.stats(i)
		for _, v := range [...]uint64{uint64(slot), uint64(st.Sent), uint64(st.Echo), uint64(st.Errors),
			uint64(st.Timeouts), uint64(st.SourceDropped), uint64(st.FaultLost), uint64(st.Completion),
			uint64(rowV2Len(sr.RTTus[i]))} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	for _, row := range sr.RTTus {
		dst = appendRowV2(dst, row)
	}
	return dst, nil
}

// stats returns row i's statistics; a shard without stats encodes zeros.
func (sr *ShardRows) stats(i int) ShardStats {
	if len(sr.Stats) == 0 {
		return ShardStats{}
	}
	return sr.Stats[i]
}

// CheckStats reports a one-row frame whose statistics break what a prober
// run over its span guarantees: one stats row; at most one probe sent per
// target; every probe sent ending as exactly one echo, error or timeout;
// fault and source losses counted among the timeouts; one present cell
// per echo; and a completion no longer than sending the probes at cfg's
// rate from vp takes. The fold sums Sent and Completion into the round's
// probe count and the Fig. 8 completion times unchecked, so a coordinator
// holds a frame from a remote agent to this before folding it.
func (sr *ShardRows) CheckStats(cfg Config, vp platform.VP) error {
	if len(sr.Stats) != 1 || len(sr.RTTus) != 1 {
		return fmt.Errorf("census: shard frame has %d stats rows for %d rows, want 1 and 1", len(sr.Stats), len(sr.RTTus))
	}
	st := sr.Stats[0]
	present := 0
	for _, c := range sr.RTTus[0] {
		if c >= 0 {
			present++
		}
	}
	// Each term is bounded before it is summed: decoded counters reach
	// 2^62, and a sum that wraps must not pass.
	switch {
	case min(st.Sent, st.Echo, st.Errors, st.Timeouts, st.SourceDropped, st.FaultLost) < 0 || st.Completion < 0:
		return fmt.Errorf("census: shard stats are negative")
	case st.Sent > sr.Hi-sr.Lo:
		return fmt.Errorf("census: shard stats claim %d probes over %d targets", st.Sent, sr.Hi-sr.Lo)
	case max(st.Echo, st.Errors, st.Timeouts) > st.Sent || st.Echo+st.Errors+st.Timeouts != st.Sent:
		return fmt.Errorf("census: shard stats: %d echo + %d errors + %d timeouts != %d sent", st.Echo, st.Errors, st.Timeouts, st.Sent)
	case st.FaultLost > st.Timeouts || st.SourceDropped > st.Timeouts-st.FaultLost:
		return fmt.Errorf("census: shard stats: %d fault-lost + %d source-dropped > %d timeouts", st.FaultLost, st.SourceDropped, st.Timeouts)
	case present != st.Echo:
		return fmt.Errorf("census: shard row has %d samples for %d echo replies", present, st.Echo)
	}
	if limit := (prober.Config{Rate: cfg.Rate}).Completion(st.Sent, vp); st.Completion > limit {
		return fmt.Errorf("census: shard stats claim %v to send %d probes, the rate allows %v", st.Completion, st.Sent, limit)
	}
	return nil
}

// DecodeShardRows parses an encoded shard frame. Every declared count and
// length is validated against the remaining buffer before anything is
// allocated, so a truncated or hostile frame from the network path fails
// fast with an error instead of panicking or over-allocating.
func DecodeShardRows(data []byte) (*ShardRows, error) {
	b := data
	if len(b) < len(ShardFrameMagic) || string(b[:len(ShardFrameMagic)]) != ShardFrameMagic {
		return nil, fmt.Errorf("census: not a shard frame")
	}
	b = b[len(ShardFrameMagic):]
	if len(b) < 1 {
		return nil, fmt.Errorf("census: truncated shard frame header")
	}
	if b[0] != 0 {
		return nil, fmt.Errorf("census: unknown shard frame flags 0x%02x", b[0])
	}
	b = b[1:]

	round, b, err := takeUvarint(b, "shard round")
	if err != nil {
		return nil, err
	}
	lo, b, err := takeUvarint(b, "shard lo")
	if err != nil {
		return nil, err
	}
	width, b, err := takeUvarint(b, "shard width")
	if err != nil {
		return nil, err
	}
	if lo > 1<<31 || width > 1<<31 || lo+width > 1<<31 {
		return nil, fmt.Errorf("census: shard span [%d,+%d) beyond the decoder cap", lo, width)
	}

	grey, b, err := DecodeGreylist(b)
	if err != nil {
		return nil, err
	}

	nRows, b, err := takeUvarint(b, "shard row count")
	if err != nil {
		return nil, err
	}
	// Every row needs at least 9 header bytes (slot + 7 stats + length)
	// before its payload; bound the count by the remaining buffer before
	// allocating, as loadRunV2 does for its row table.
	if nRows > uint64(len(b))/9+1 {
		return nil, fmt.Errorf("census: shard row count %d exceeds payload", nRows)
	}
	if nRows > 0 && width > 0 && width > (1<<31)/nRows {
		return nil, fmt.Errorf("census: shard claims %d x %d cells, beyond the decoder cap", nRows, width)
	}
	slots := make([]int, nRows)
	stats := make([]ShardStats, nRows)
	lengths := make([]uint64, nRows)
	var total uint64
	for i := uint64(0); i < nRows; i++ {
		var v uint64
		v, b, err = takeUvarint(b, "shard row slot")
		if err != nil {
			return nil, err
		}
		if v > 1<<31 {
			return nil, fmt.Errorf("census: shard row %d slot %d beyond the decoder cap", i, v)
		}
		slots[i] = int(v)
		counters := [...]*int{
			&stats[i].Sent, &stats[i].Echo, &stats[i].Errors,
			&stats[i].Timeouts, &stats[i].SourceDropped, &stats[i].FaultLost,
		}
		for _, dst := range counters {
			v, b, err = takeUvarint(b, "shard row stats")
			if err != nil {
				return nil, err
			}
			if v > 1<<62 {
				return nil, fmt.Errorf("census: shard row %d stats counter %d out of range", i, v)
			}
			*dst = int(v)
		}
		v, b, err = takeUvarint(b, "shard row completion")
		if err != nil {
			return nil, err
		}
		if v > 1<<62 {
			return nil, fmt.Errorf("census: shard row %d completion %d out of range", i, v)
		}
		stats[i].Completion = time.Duration(v)
		lengths[i], b, err = takeUvarint(b, "shard row length")
		if err != nil {
			return nil, err
		}
		// Per-entry validation against the remaining budget, so the sum
		// cannot wrap and the payload slicing below cannot panic.
		if lengths[i] > uint64(len(b)) {
			return nil, fmt.Errorf("census: shard row %d length %d exceeds payload", i, lengths[i])
		}
		total += lengths[i]
		if total > uint64(len(data)) {
			return nil, fmt.Errorf("census: shard rows (%d+ bytes) exceed payload (%d)", total, len(data))
		}
	}
	if total != uint64(len(b)) {
		return nil, fmt.Errorf("census: shard rows (%d bytes) disagree with payload (%d)", total, len(b))
	}

	rows := make([][]int32, nRows)
	for i := range rows {
		p := b[:lengths[i]]
		b = b[lengths[i]:]
		row := make([]int32, width)
		if err := decodeRowV2(p, row, int(i)); err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return &ShardRows{
		Round:    round,
		Lo:       int(lo),
		Hi:       int(lo + width),
		Slots:    slots,
		RTTus:    rows,
		Stats:    stats,
		Greylist: grey,
	}, nil
}

// Span is a contiguous target range [Lo, Hi).
type Span struct{ Lo, Hi int }

// ShardSpans splits n targets into spans of the given width (the last one
// may be narrower). A non-positive width yields one span covering all
// targets; n <= 0 yields none.
func ShardSpans(n, width int) []Span {
	if n <= 0 {
		return nil
	}
	if width <= 0 || width > n {
		width = n
	}
	spans := make([]Span, 0, (n+width-1)/width)
	for lo := 0; lo < n; lo += width {
		hi := lo + width
		if hi > n {
			hi = n
		}
		spans = append(spans, Span{Lo: lo, Hi: hi})
	}
	return spans
}

// UnknownVPSlotError reports a shard frame referencing a combined row
// slot that is out of range or not registered in the open round.
type UnknownVPSlotError struct {
	Round uint64
	Slot  int
	VPs   int
}

func (e *UnknownVPSlotError) Error() string {
	return fmt.Sprintf("census: shard frame for round %d references unknown VP slot %d (%d registered)",
		e.Round, e.Slot, e.VPs)
}

// ShardRangeError reports a shard frame whose target span falls outside
// the campaign's target list, or whose row width disagrees with its span.
type ShardRangeError struct {
	Round   uint64
	Lo, Hi  int
	Targets int
	// RowCells, when non-negative, is the cell count of the offending
	// row; -1 means the span itself is out of range.
	RowCells int
}

func (e *ShardRangeError) Error() string {
	if e.RowCells >= 0 {
		return fmt.Sprintf("census: shard frame for round %d has a %d-cell row for span [%d,%d)",
			e.Round, e.RowCells, e.Lo, e.Hi)
	}
	return fmt.Sprintf("census: shard frame for round %d spans [%d,%d) outside %d targets",
		e.Round, e.Lo, e.Hi, e.Targets)
}

// BeginRound opens a round for folding: it validates the target list
// against earlier rounds, registers the round's vantage points (new VPs
// extend the combined union in first-seen order, matching the tests'
// batch Combine; their fresh rows are slab-carved together and start
// all-NoSample, so min-merging into one equals copying it), and returns
// the combined row slot of each VP, in vps order. Only one round may be
// open at a time.
func (cp *Campaign) BeginRound(round uint64, targets []netsim.IP, vps []platform.VP) ([]int, error) {
	if cp.shardOpen {
		return nil, fmt.Errorf("census: round %d still open; FinishRound first", cp.shardRound)
	}
	if cp.combined == nil {
		cp.combined = &Combined{
			Targets: targets,
			RTTus:   make([][]int32, 0, len(vps)),
		}
	} else {
		if len(targets) != len(cp.combined.Targets) {
			return nil, fmt.Errorf("census: round %d has %d targets, campaign has %d",
				round, len(targets), len(cp.combined.Targets))
		}
		for ti, tgt := range targets {
			if tgt != cp.combined.Targets[ti] {
				return nil, fmt.Errorf("census: round %d target list diverges at index %d (%v vs %v)",
					round, ti, tgt, cp.combined.Targets[ti])
			}
		}
	}
	c := cp.combined
	c.Rounds++
	slots := make([]int, len(vps))
	var fresh []int // slots registered by this round
	for vi, vp := range vps {
		si, ok := cp.byID[vp.ID]
		if !ok {
			si = len(c.VPs)
			cp.byID[vp.ID] = si
			c.VPs = append(c.VPs, vp)
			c.RTTus = append(c.RTTus, nil)
			fresh = append(fresh, si)
		}
		slots[vi] = si
	}
	if len(fresh) > 0 {
		if cp.arena == nil || cp.arena.rowLen != len(c.Targets) {
			cp.arena = newSlabArena(len(c.Targets))
		}
		for i, row := range cp.arena.alloc(len(fresh)) {
			fillNoSample(row)
			c.RTTus[fresh[i]] = row
		}
	}
	if len(cp.shardSlots) < len(c.VPs) {
		cp.shardSlots = make([]bool, len(c.VPs))
	}
	clear(cp.shardSlots)
	for _, si := range slots {
		cp.shardSlots[si] = true
	}
	cp.shardRound = round
	cp.shardOpen = true
	return slots, nil
}

// FoldShard merges a partial result into the open round: per-cell
// minimum into the combined matrix over the frame's span and set union into
// the campaign greylist.
//
// The per-cell min is commutative, associative, and idempotent, so
// shards may arrive in any order — interleaved across vantage points,
// out of target order, or duplicated by a re-lease after an agent loss —
// and the folded matrix is independent of arrival order
// (TestFoldShardOrderInvariance). A frame referencing a slot that is not
// registered in the open round fails with *UnknownVPSlotError; a span or
// row width outside the target list fails with *ShardRangeError. Either
// way the campaign is untouched: a frame folds whole or not at all.
// FoldShard must not run concurrently with itself or Analyze.
func (cp *Campaign) FoldShard(sr *ShardRows) error {
	_, err := cp.foldShard(sr, nil)
	return err
}

// foldShard is FoldShard returning how many samples the frame's rows hold
// and, unless echo is nil, marking each sample's target in echo (a bit per
// campaign target): the round engine's accounting, in the fold's one pass
// over the rows.
func (cp *Campaign) foldShard(sr *ShardRows, echo []uint64) (samples int, err error) {
	if !cp.shardOpen {
		return 0, fmt.Errorf("census: no shard round open (frame for round %d)", sr.Round)
	}
	if sr.Round != cp.shardRound {
		return 0, fmt.Errorf("census: shard frame for round %d, open round is %d", sr.Round, cp.shardRound)
	}
	c := cp.combined
	nT := len(c.Targets)
	width := sr.Hi - sr.Lo
	if sr.Lo < 0 || width < 0 || sr.Hi > nT {
		return 0, &ShardRangeError{Round: sr.Round, Lo: sr.Lo, Hi: sr.Hi, Targets: nT, RowCells: -1}
	}
	if len(sr.RTTus) != len(sr.Slots) {
		return 0, fmt.Errorf("census: shard frame has %d rows for %d slots", len(sr.RTTus), len(sr.Slots))
	}
	// Validate everything before mutating anything.
	for i, slot := range sr.Slots {
		if slot < 0 || slot >= len(c.VPs) || !cp.shardSlots[slot] {
			return 0, &UnknownVPSlotError{Round: sr.Round, Slot: slot, VPs: len(c.VPs)}
		}
		if len(sr.RTTus[i]) != width {
			return 0, &ShardRangeError{Round: sr.Round, Lo: sr.Lo, Hi: sr.Hi, Targets: nT, RowCells: len(sr.RTTus[i])}
		}
	}
	for i, slot := range sr.Slots {
		samples += foldCells(c.RTTus[slot][sr.Lo:sr.Hi], sr.RTTus[i], echo, sr.Lo)
	}
	cp.grey.Merge(sr.Greylist)
	return samples, nil
}

// FinishRound closes the open round, folding its health record into the
// campaign summary.
func (cp *Campaign) FinishRound(h RunHealth) error {
	if !cp.shardOpen {
		return fmt.Errorf("census: no shard round open")
	}
	cp.shardOpen = false
	cp.health.Add(h)
	if m := cp.cfg.Metrics; m != nil {
		m.RoundsFolded.Inc()
		m.GreylistSize.Set(float64(cp.grey.Len()))
	}
	return nil
}
