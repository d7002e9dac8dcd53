package census

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// pipeline.go — the in-process executor of the round engine (sched.go):
// what Campaign.Local runs under Campaign.Drive for cmd/census (and its
// -verify reference for a fleet) and the paper's figures
// (internal/experiments).
//
// It works in (VP, target-span) units, the same unit the cluster
// coordinator leases to agents: each worker probes a span and min-merges
// it into the combined matrix, so a round's working set beyond the
// combined matrix is one span per worker. The whole-round reference,
// ExecuteContext, materializes a full V×T matrix instead — tens of
// gigabytes at paper scale (6.6M targets, hundreds of VPs).
//
// Byte-identity with that reference follows from the fold algebra
// (per-cell min is commutative, associative, idempotent; greylist merge
// is a set union) plus the invariant that probing a span is byte-identical
// to the corresponding span of a full-row prober.Run (RTT draws are pure
// functions of (VP, target, round, seed, attempt)). TestCensusDeterminism
// pins pipelined-vs-whole-round digests.
//
// Under faults the two differ by design: here only successful units fold,
// so a quarantined VP keeps the spans that succeeded and contributes
// nothing from the attempts that crashed, where ExecuteContext keeps a
// crashed attempt's partial sink writes.

// PipelineConfig tunes ExecuteRoundPipelined.
type PipelineConfig struct {
	// SpanTargets is the width in targets of one probe/fold unit; zero
	// means DefaultSpanTargets.
	SpanTargets int
}

// EffectiveSpanTargets resolves the unit width as OpenRound does.
func (pc PipelineConfig) EffectiveSpanTargets() int {
	if pc.SpanTargets > 0 {
		return pc.SpanTargets
	}
	return DefaultSpanTargets
}

// Validate reports a negative SpanTargets, which means no width, or nil.
func (pc PipelineConfig) Validate() error {
	if pc.SpanTargets < 0 {
		return fmt.Errorf("census: SpanTargets %d is negative (0 means %d)", pc.SpanTargets, DefaultSpanTargets)
	}
	return nil
}

// ExecuteRoundPipelined probes one census round in (VP, target-span)
// units, folding each unit into the campaign as it completes instead of
// materializing the round's full V×T matrix. Config.Workers vantage
// points probe concurrently. Per-VP probing errors degrade rather than
// abort: failed units retry under the round engine's per-VP attempt
// budget, a VP whose budget is exhausted is quarantined keeping its folded
// spans, and the joined error is returned alongside the round summary.
func (cp *Campaign) ExecuteRoundPipelined(ctx context.Context, w *netsim.World, vps []platform.VP, h *hitlist.Hitlist, blacklist *prober.Greylist, round uint64, pc PipelineConfig) (RoundSummary, error) {
	targets := h.Targets()
	s, err := cp.OpenRound(round, targets, vps, pc.SpanTargets)
	if err != nil {
		return RoundSummary{Round: round}, err
	}

	// The round's span plans, ~33 B per target, go when the round returns.
	plans := NewSpanPlans(w, targets, blacklist)

	var mu sync.Mutex // owns s and abort
	var abort error
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		// The worker's one row: Done folds it before the next unit
		// probes into it.
		var sr ShardRows
		mu.Lock()
		defer mu.Unlock()
		for abort == nil && ctx.Err() == nil {
			u, ok, wake := s.Next(time.Now())
			switch {
			case ok:
				mu.Unlock()
				err := ProbeShard(w, plans.Plan(round, u.Span), cp.cfg.Census, u, &sr)
				mu.Lock()
				if err != nil {
					s.Fail(u, err, time.Now())
				} else if err := s.Done(u, &sr); err != nil {
					abort = err
				}
			case wake.IsZero():
				// Settled, or every open VP is in another worker's
				// hands — and that worker takes whatever its result
				// makes runnable.
				return
			default:
				// Only parked VPs are left for this worker: wait out the
				// earliest backoff.
				mu.Unlock()
				select {
				case <-ctx.Done():
				case <-time.After(time.Until(wake)):
				}
				mu.Lock()
			}
		}
	}
	for range min(cp.cfg.Census.EffectiveWorkers(), len(vps)) {
		wg.Add(1)
		go worker()
	}
	wg.Wait()

	return s.Close(errors.Join(abort, ctx.Err()))
}
