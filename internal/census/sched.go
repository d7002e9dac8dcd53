package census

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
	"anycastmap/internal/record"
)

// sched.go — the round engine: the one place that decides which (vantage
// point, target span) unit runs next, what a failure costs, when a vantage
// point is quarantined, and what the round reports when it closes.
//
// The paper's census is hundreds of PlanetLab nodes probing one hitlist
// while the platform sheds nodes under it (a "~300 VP" census shipped with
// 240–270), so dispatch → retry → quarantine → fold is the heart of the
// measurement plane. RoundSched is that policy as a state machine: it
// starts no goroutine and reads no clock (callers pass now), so the
// in-process worker pool (pipeline.go) and the cluster coordinator's loop
// goroutine drive the very same code, and a table test can replay any
// schedule. It is not safe for concurrent use: one goroutine, or one
// mutex, owns it.
//
// The policy:
//   - A vantage point is one host probing at one rate: it has at most one
//     unit in flight, and parallelism is across vantage points. Units are
//     handed out VP-major, spans in target order.
//   - Attempts are counted per vantage point. A failure bumps the VP's
//     attempt past the failed one and parks the VP — never a worker —
//     until now+Backoff(attempt); its remaining spans run at the bumped
//     attempt, so a recoverably crashed VP costs one failure, not one per
//     span.
//   - A VP whose attempt reaches Config.Attempts is quarantined: its
//     remaining spans are abandoned and its combined row keeps what its
//     successful units folded.
//   - Only successful units fold, and only their probes count. A unit is
//     identified by (VP, span), not by attempt, so a result probed at an
//     older attempt still folds after a bump (RTT draws are
//     attempt-invariant).
//   - State is O(vantage points + spans per row), never O(units).

// DefaultSpanTargets is the unit width when the caller passes none: wide
// enough that per-unit setup amortizes, narrow enough that one unit's
// working set — the span's slice of the world (prefixes, host records,
// targets) plus its session slabs and RTT row, ~1MB at this width — stays
// L2-resident. Wider spans measure strictly slower on the census path
// (65536 costs ~15% more wall at 758k targets purely from cache misses in
// the span resolve and probe loop).
const DefaultSpanTargets = 1 << 14

// Unit is one (vantage point, target span) piece of a round, as
// RoundSched.Next hands it out and ProbeShard executes it.
type Unit struct {
	Round uint64
	VP    platform.VP
	// Index is the VP's position in the round's vantage-point list, Slot
	// its row in the combined matrix.
	Index, Slot int
	Span        Span
	// Attempt is the VP's attempt number the unit runs at.
	Attempt int
}

// vpSched is one vantage point's progress through a round.
type vpSched struct {
	next      int  // spans [0, next) are folded; span next is the one in flight
	inflight  bool // span next is handed out and not yet Done or Failed
	attempt   int  // attempt the next unit carries; > 0 once the VP has failed
	tried     int  // attempts used: highest attempt handed out, plus one
	dropped   bool // attempt budget exhausted
	notBefore time.Time
	cause     error // the most recent failure
	samples   int
}

// RoundSched schedules one open round of a campaign. Build it with
// Campaign.OpenRound; drive it with Next/Done/Fail until Settled (or the
// round is given up on); Close it exactly once.
type RoundSched struct {
	cp    *Campaign
	round uint64
	vps   []platform.VP
	slots []int
	spans []Span
	state []vpSched
	first int // every VP before it is complete or quarantined
	open  int // VPs neither complete nor quarantined

	probes     int
	completion []time.Duration // per VP: its folded units' simulated probing time
	echo       []uint64        // bit per target: some VP got an echo this round
	grey       *prober.Greylist
}

// OpenRound opens round on the campaign and returns its
// scheduler. spanTargets is the unit width in targets; non-positive means
// DefaultSpanTargets, and anything wider than the target list means one
// span per row.
func (cp *Campaign) OpenRound(round uint64, targets []netsim.IP, vps []platform.VP, spanTargets int) (*RoundSched, error) {
	slots, err := cp.beginRound(round, targets, vps)
	if err != nil {
		return nil, err
	}
	s := &RoundSched{
		cp:         cp,
		round:      round,
		vps:        vps,
		slots:      slots,
		spans:      ShardSpans(len(targets), PipelineConfig{SpanTargets: spanTargets}.EffectiveSpanTargets()),
		state:      make([]vpSched, len(vps)),
		completion: make([]time.Duration, len(vps)),
		echo:       make([]uint64, (len(targets)+63)/64),
		grey:       prober.NewGreylist(),
	}
	if len(s.spans) > 0 {
		s.open = len(vps)
	}
	return s, nil
}

// Next hands out the next runnable unit: the lowest-indexed vantage point
// that has spans left, nothing in flight, and is not parked past now.
// When nothing is runnable, wake is the earliest time a parked vantage
// point becomes so — zero when every open vantage point is in flight (or
// the round is settled) and only a Done or Fail can change the answer.
func (s *RoundSched) Next(now time.Time) (u Unit, ok bool, wake time.Time) {
	for s.first < len(s.state) && s.finished(&s.state[s.first]) {
		s.first++
	}
	for vi := s.first; vi < len(s.state); vi++ {
		v := &s.state[vi]
		if v.inflight || s.finished(v) {
			continue
		}
		if now.Before(v.notBefore) {
			if wake.IsZero() || v.notBefore.Before(wake) {
				wake = v.notBefore
			}
			continue
		}
		v.inflight = true
		v.tried = v.attempt + 1
		return Unit{
			Round:   s.round,
			VP:      s.vps[vi],
			Index:   vi,
			Slot:    s.slots[vi],
			Span:    s.spans[v.next],
			Attempt: v.attempt,
		}, true, time.Time{}
	}
	return Unit{}, false, wake
}

func (s *RoundSched) finished(v *vpSched) bool {
	return v.dropped || v.next == len(s.spans)
}

// inFlight returns u's vantage point when u is its unit in flight.
func (s *RoundSched) inFlight(u Unit) *vpSched {
	if v := &s.state[u.Index]; v.inflight && u.Round == s.round && u.Slot == s.slots[u.Index] && s.spans[v.next] == u.Span {
		return v
	}
	return nil
}

// Done folds a successfully probed unit's row into the campaign —
// per-cell minimum into the combined row over the unit's span, set union
// into the campaign greylist — and accounts for it, counting its samples
// in the fold's one pass over the row. The per-cell min is commutative,
// associative and idempotent, so units may fold in any order across
// vantage points (TestFoldShardOrderInvariance). A unit that is not in
// flight, or a row that is not the unit's span wide, is refused, and the
// campaign and the unit are left untouched (still in flight, for the
// caller to Fail). Done keeps nothing of sr.
func (s *RoundSched) Done(u Unit, sr *ShardRows) error {
	v := s.inFlight(u)
	if v == nil {
		return fmt.Errorf("census: round %d: VP %s span [%d,%d) is not in flight",
			s.round, u.VP.Name, u.Span.Lo, u.Span.Hi)
	}
	if len(sr.RTTus) != u.Span.Hi-u.Span.Lo {
		return fmt.Errorf("census: round %d: VP %s: a %d-cell row for span [%d,%d)",
			s.round, u.VP.Name, len(sr.RTTus), u.Span.Lo, u.Span.Hi)
	}
	samples := foldCells(s.cp.combined.RTTus[u.Slot][u.Span.Lo:u.Span.Hi], sr.RTTus, s.echo, u.Span.Lo)
	s.cp.grey.Merge(sr.Greylist)
	v.inflight = false
	v.next++
	if v.next == len(s.spans) {
		s.open--
	}
	v.samples += samples
	s.probes += sr.Stats.Sent
	s.completion[u.Index] += sr.Stats.Completion
	s.grey.Merge(sr.Greylist)
	return nil
}

// Fail returns a failed unit's span to its vantage point: the VP's
// attempt bumps past the failed one and the VP is parked until
// now+Backoff(attempt), or — budget exhausted — quarantined, in which
// case the quarantine error is returned. Nil means the span will be
// handed out again.
func (s *RoundSched) Fail(u Unit, cause error, now time.Time) error {
	v := s.inFlight(u)
	if v == nil {
		return nil
	}
	v.inflight = false
	v.cause = cause
	if u.Attempt >= v.attempt {
		v.attempt = u.Attempt + 1
	}
	cfg := s.cp.cfg.Census
	if v.attempt >= cfg.Attempts() {
		v.dropped = true
		s.open--
		return s.quarantineErr(u.Index)
	}
	v.notBefore = now.Add(cfg.Backoff(v.attempt))
	return nil
}

func (s *RoundSched) quarantineErr(vi int) error {
	return fmt.Errorf("census: VP %s quarantined after %d attempts: %w",
		s.vps[vi].Name, s.state[vi].tried, s.state[vi].cause)
}

// Settled reports whether every vantage point is complete or quarantined.
func (s *RoundSched) Settled() bool { return s.open == 0 }

// Open reports how many vantage points are neither complete nor
// quarantined: the ones in flight, parked or still to be handed out.
func (s *RoundSched) Open() int { return s.open }

// Close closes the round on the campaign and reports it.
// Vantage points with spans left — the round was aborted under them —
// are marked "round aborted", or Skipped when they never ran; units still
// in flight are abandoned. The error joins every quarantine, a
// second Close, and aborted. The caller stamps Duration.
func (s *RoundSched) Close(aborted error) (RoundSummary, error) {
	perVP := make([]VPHealth, len(s.vps))
	rowSamples := make([]int, len(s.vps))
	var errs []error
	for vi := range s.state {
		v := &s.state[vi]
		vh := VPHealth{VP: s.vps[vi].Name, Attempts: v.tried}
		switch {
		case v.dropped:
			vh.Quarantined = true
			vh.Err = v.cause.Error()
			errs = append(errs, s.quarantineErr(vi))
		case v.next < len(s.spans):
			if v.tried == 0 {
				vh.Skipped = true
			} else {
				vh.Err = "round aborted"
			}
		default:
			vh.Recovered = v.attempt > 0
		}
		perVP[vi] = vh
		rowSamples[vi] = v.samples
	}
	health := buildHealth(s.round, perVP, rowSamples)
	if err := s.cp.finishRound(health); err != nil {
		errs = append(errs, err)
	}
	echoTargets := 0
	for _, w := range s.echo {
		echoTargets += bits.OnesCount64(w)
	}
	return RoundSummary{
		Round:       s.round,
		VPs:         len(s.vps),
		Probes:      s.probes,
		EchoTargets: echoTargets,
		GreylistLen: s.grey.Len(),
		Completion:  s.completion,
		Health:      health,
	}, errors.Join(append(errs, aborted)...)
}

// ProbeShard probes one unit over plan, the unit's span planned around the
// round's blacklist (prober.NewPlan over targets[u.Span.Lo:u.Span.Hi]),
// and fills sr with its result. sr is the caller's, and its row is
// reused: a caller that keeps one per worker probes unit after unit
// without allocating, each result valid until the next ProbeShard into
// sr. On an error sr's contents are undefined. The prober hands the sink
// each sample's span index, so the row fills positionally — no per-unit
// target→index map, whose construction would dominate a narrow span's
// probing time. Same sink filter and RTT clamp as ExecuteContext, so the
// span is byte-identical to the corresponding span of the row the
// whole-round reference produces.
func ProbeShard(w *netsim.World, plan *prober.Plan, cfg Config, u Unit, sr *ShardRows) error {
	row := sr.RTTus[:0]
	if cap(row) < plan.Len() {
		row = make([]int32, plan.Len())
	}
	row = row[:plan.Len()]
	fillNoSample(row)
	sink := func(ti int, smp record.Sample) {
		if smp.Kind != netsim.ReplyEcho {
			return
		}
		us := smp.RTT.Microseconds()
		if us > 1<<30 {
			us = 1 << 30
		}
		row[ti] = int32(us)
	}
	stats, grey, err := prober.RunPlan(w, u.VP, plan,
		prober.Config{Rate: cfg.Rate, Round: u.Round, Seed: cfg.Seed, Attempt: u.Attempt},
		sink)
	if err != nil {
		return err
	}
	sr.RTTus, sr.Stats, sr.Greylist = row, ShardStatsOf(stats), grey
	return nil
}
