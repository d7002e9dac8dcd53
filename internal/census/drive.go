package census

import (
	"context"
	"errors"
	"fmt"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// drive.go — the campaign driver, the one place the workflow of Fig. 1
// after the blacklist runs: N census rounds through an executor, each
// folding into the campaign as its units land, then one analysis of the
// minimum-RTT combination. cmd/census (its fleet, its in-process run and
// the -verify reference) and the paper's lab all run their rounds, round
// clock and analysis here; only bench/ still drives the executors itself.

// RoundExecutor probes one census round into the campaign it was built
// over: Campaign.Local in process, or a cluster coordinator leasing the
// round's units to agents.
type RoundExecutor interface {
	ExecuteRound(ctx context.Context, round uint64, vps []platform.VP) (RoundSummary, error)
}

// Local returns the in-process executor over cp: each round probes the
// targets of h on w, skipping blacklist, in (VP, span) units of pc's width
// (ExecuteRoundPipelined).
func (cp *Campaign) Local(w *netsim.World, h *hitlist.Hitlist, blacklist *prober.Greylist, pc PipelineConfig) RoundExecutor {
	return executorFunc(func(ctx context.Context, round uint64, vps []platform.VP) (RoundSummary, error) {
		return cp.ExecuteRoundPipelined(ctx, w, vps, h, blacklist, round, pc)
	})
}

type executorFunc func(ctx context.Context, round uint64, vps []platform.VP) (RoundSummary, error)

func (f executorFunc) ExecuteRound(ctx context.Context, round uint64, vps []platform.VP) (RoundSummary, error) {
	return f(ctx, round, vps)
}

// Drive is one run of a campaign: its rounds and their analysis.
type Drive struct {
	// Executor probes each round into the campaign.
	Executor RoundExecutor
	// Schedule is each round's vantage points; round i is numbered First+i.
	First    uint64
	Schedule [][]platform.VP
	// Workers is the analysis's worker count (0 = GOMAXPROCS).
	Workers int
	// Log, when set, receives one line per round (and a health line when
	// the round retried or degraded).
	Log func(format string, args ...any)
}

// Report is what a drive measured besides its outcomes.
type Report struct {
	// Rounds is each round's summary in order, Duration its wall.
	Rounds []RoundSummary
	// Probes and ProbeWall sum the rounds' probes and walls.
	Probes    int
	ProbeWall time.Duration
	// Analysis counts how detection decided the targets; AnalysisWall is
	// its wall.
	Analysis     AnalyzerStats
	AnalysisWall time.Duration
}

// Drive runs d's rounds through d.Executor, then analyzes every round the
// campaign has folded, this drive's and any before it, with the paper's
// parameters: the default city table and core options, at least two
// samples per target. A failed round keeps its folded rows and does not
// stop the rounds after it; the error joins one error per failed round,
// each naming it. The analysis runs once any round has folded and is
// recorded in the campaign's metrics. It is not incremental (a vantage
// point new to the combined matrix changes every target it answers), so a
// caller that wants a verdict per round drives one round at a time.
func (cp *Campaign) Drive(ctx context.Context, d Drive) ([]Outcome, Report, error) {
	logf := d.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rep Report
	var errs []error
	for i, vps := range d.Schedule {
		round := d.First + uint64(i)
		t0 := time.Now()
		sum, err := d.Executor.ExecuteRound(ctx, round, vps)
		sum.Duration = time.Since(t0)
		if err != nil {
			errs = append(errs, fmt.Errorf("census %d: %w", round, err))
			logf("census %d: probing errors (partial rows kept): %v", round, err)
		}
		logf("census %d: %d VPs, %d probes, %d echo targets, %d greylisted (%v)",
			round, sum.VPs, sum.Probes, sum.EchoTargets, sum.GreylistLen, sum.Duration.Round(time.Millisecond))
		if sum.Health.Retries > 0 || sum.Health.Degraded() {
			logf("census %d health: %s", round, sum.Health)
		}
		rep.Rounds = append(rep.Rounds, sum)
		rep.Probes += sum.Probes
		rep.ProbeWall += sum.Duration
	}
	if cp.combined == nil {
		return nil, rep, errors.Join(append(errs, errors.New("census: no round folded"))...)
	}
	t0 := time.Now()
	outcomes, st := analyzeAll(cities.Default(), cp.combined, core.Options{}, 2, d.Workers)
	rep.Analysis, rep.AnalysisWall = st, time.Since(t0)
	cp.cfg.Metrics.analyzeObserved(rep.AnalysisWall, st)
	return outcomes, rep, errors.Join(errs...)
}
