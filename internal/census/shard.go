package census

import (
	"fmt"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// This file is the distributed data path of the census: what one
// (vantage point, target span) unit reports — its row, its statistics and
// its greylist discoveries — and how a round opens and closes on the
// campaign. A unit's round, span and combined row slot are the
// scheduler's (Unit); its result carries nothing the unit already says,
// and it folds only through RoundSched.Done.
//
// The paper's census was always a distributed system — hundreds of
// PlanetLab vantage points uploading measurements to one repository
// (Fig. 1) — and a unit's result is that upload, made incremental.
// Correctness under distribution rests on the fold algebra: the per-cell
// combine is min(), which is commutative, associative, and idempotent,
// and the greylist merge is a set union. Units may therefore fold in any
// order and interleave across vantage points, and the combined matrix
// still comes out byte-identical to the whole-round Campaign.FoldRun
// reference (TestFoldShardMatchesFoldRun, TestFoldShardOrderInvariance).

// NoSample is the exported sentinel for an absent echo sample in a shard
// row; the latency matrices use the same value internally.
const NoSample = noSample

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

// ShardRows is one unit's result: its vantage point's row over the unit's
// span, one cell per target with NoSample marking unanswered ones, the
// run's statistics, and the ICMP-error discoveries made while probing.
type ShardRows struct {
	RTTus    []int32
	Stats    ShardStats
	Greylist *prober.Greylist
}

// CheckStats reports a result whose statistics break what a prober run
// over unit u guarantees: at most one probe sent per target of its span;
// every probe sent ending as exactly one echo, error or timeout; fault
// and source losses counted among the timeouts; one present cell per
// echo; and a completion no longer than sending the probes at cfg's rate
// from u's vantage point takes. The fold sums Sent and Completion into
// the round's probe count and the Fig. 8 completion times unchecked, so a
// coordinator holds a result from a remote agent to this before folding
// it.
func (sr *ShardRows) CheckStats(cfg Config, u Unit) error {
	st := sr.Stats
	present := 0
	for _, c := range sr.RTTus {
		if c >= 0 {
			present++
		}
	}
	width := u.Span.Hi - u.Span.Lo
	// Each term is bounded before it is summed: counters come off the
	// wire, and a sum that wraps must not pass.
	switch {
	case min(st.Sent, st.Echo, st.Errors, st.Timeouts, st.SourceDropped, st.FaultLost) < 0 || st.Completion < 0:
		return fmt.Errorf("census: shard stats are negative")
	case st.Sent > width:
		return fmt.Errorf("census: shard stats claim %d probes over %d targets", st.Sent, width)
	case max(st.Echo, st.Errors, st.Timeouts) > st.Sent || st.Echo+st.Errors+st.Timeouts != st.Sent:
		return fmt.Errorf("census: shard stats: %d echo + %d errors + %d timeouts != %d sent", st.Echo, st.Errors, st.Timeouts, st.Sent)
	case st.FaultLost > st.Timeouts || st.SourceDropped > st.Timeouts-st.FaultLost:
		return fmt.Errorf("census: shard stats: %d fault-lost + %d source-dropped > %d timeouts", st.FaultLost, st.SourceDropped, st.Timeouts)
	case present != st.Echo:
		return fmt.Errorf("census: shard row has %d samples for %d echo replies", present, st.Echo)
	}
	if limit := (prober.Config{Rate: cfg.Rate}).Completion(st.Sent, u.VP); st.Completion > limit {
		return fmt.Errorf("census: shard stats claim %v to send %d probes, the rate allows %v", st.Completion, st.Sent, limit)
	}
	return nil
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

// beginRound opens a round for folding: it validates the target list
// against earlier rounds, registers the round's vantage points (new VPs
// extend the combined union in first-seen order, matching the tests'
// batch Combine; their fresh rows are slab-carved together and start
// all-NoSample, so min-merging into one equals copying it), and returns
// the combined row slot of each VP, in vps order. Only one round may be
// open at a time.
func (cp *Campaign) beginRound(round uint64, targets []netsim.IP, vps []platform.VP) ([]int, error) {
	if cp.roundOpen {
		return nil, fmt.Errorf("census: round %d: a round is still open", round)
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
	cp.roundOpen = true
	return slots, nil
}

// finishRound closes the open round, folding its health record into the
// campaign summary.
func (cp *Campaign) finishRound(h RunHealth) error {
	if !cp.roundOpen {
		return fmt.Errorf("census: no round open")
	}
	cp.roundOpen = false
	cp.health.Add(h)
	if m := cp.cfg.Metrics; m != nil {
		m.RoundsFolded.Inc()
		m.GreylistSize.Set(float64(cp.grey.Len()))
	}
	return nil
}
