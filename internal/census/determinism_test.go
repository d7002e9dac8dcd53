package census

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// digestConfig selects one pipeline variant for campaignDigest: the
// execution knobs (probe cache, census workers) and the combine path
// (batch Combine versus folding each whole round into a Campaign).
type digestConfig struct {
	disableCache bool
	workers      int
	stream       bool
	// pipelined executes each round in (VP, target-span) units through
	// ExecuteRoundPipelined instead of materializing the whole round.
	pipelined   bool
	spanTargets int
}

// campaignDigest runs a small three-round campaign and serializes
// everything the pipeline observes: the saved run bytes (SaveRun's v2
// format is byte-deterministic, so the files themselves are part of the
// digest), the analysis outcomes after every round (targets, replica
// sets, cities), the combined minimum-RTT matrix, and the campaign greylist
// union. Byte-equal digests mean the pipelines are indistinguishable.
func campaignDigest(t *testing.T, dc digestConfig) []byte {
	t.Helper()
	wcfg := netsim.DefaultConfig()
	wcfg.Unicast24s = 500
	wcfg.DisableProbeCache = dc.disableCache
	w := netsim.New(wcfg)

	pl := platform.PlanetLab(cities.Default())
	vps := pl.VPs()[:24]
	h := hitlist.FromWorld(w).PruneNeverAlive()
	cfg := Config{Seed: 11, Workers: dc.workers, RetryBackoff: -1}

	blacklist, err := prober.BuildBlacklist(w, vps[0], h.Targets(), prober.Config{Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	digestOutcomes := func(round uint64, outcomes []Outcome) {
		for _, o := range outcomes {
			fmt.Fprintf(&buf, "round %d out %v n=%d cities=%v iter=%d\n",
				round, o.Target, o.Result.Count(), o.Result.Cities(), o.Result.Iterations)
			for _, rep := range o.Result.Replicas {
				fmt.Fprintf(&buf, "  rep %s located=%v disk=%v city=%s\n",
					rep.VP, rep.Located, rep.Disk, rep.City.Key())
			}
		}
	}

	cp := NewCampaign(CampaignConfig{Census: cfg})
	var runs []*Run
	for round := uint64(1); round <= 3; round++ {
		// The whole-round run is always executed: its saved bytes and
		// round summary are part of the digest, so a pipelined variant is
		// pinned against the exact per-round numbers of the whole-round
		// path, not just the final matrix.
		run, err := ExecuteContext(context.Background(), w, vps, h, blacklist, round, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveRun(&buf, run); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "roundsum %d probes=%d echo=%d grey=%d\n",
			round, run.TotalProbes(), run.EchoTargets(), run.Greylist.Len())
		switch {
		case dc.pipelined:
			sum, err := cp.ExecuteRoundPipelined(context.Background(), w, vps, h, blacklist, round,
				PipelineConfig{SpanTargets: dc.spanTargets})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Probes != run.TotalProbes() || sum.EchoTargets != run.EchoTargets() || sum.GreylistLen != run.Greylist.Len() {
				t.Fatalf("round %d pipelined summary (probes=%d echo=%d grey=%d) != whole-round (probes=%d echo=%d grey=%d)",
					round, sum.Probes, sum.EchoTargets, sum.GreylistLen,
					run.TotalProbes(), run.EchoTargets(), run.Greylist.Len())
			}
			// A VP's completion sums its units' simulated times, each
			// truncated to the nanosecond, so it equals the whole row's
			// only when the row is one span.
			if len(ShardSpans(h.Len(), PipelineConfig{SpanTargets: dc.spanTargets}.EffectiveSpanTargets())) == 1 {
				for i, st := range run.Stats {
					if sum.Completion[i] != st.Completion {
						t.Fatalf("round %d VP %d pipelined completion %v != whole-round %v",
							round, i, sum.Completion[i], st.Completion)
					}
				}
			}
		case dc.stream:
			if err := cp.FoldRun(run); err != nil {
				t.Fatal(err)
			}
		default:
			runs = append(runs, run)
		}
		// Per-round analysis outcomes over whichever combination the
		// variant builds.
		switch {
		case dc.stream || dc.pipelined:
			digestOutcomes(round, AnalyzeAll(cities.Default(), cp.Combined(), core.Options{}, 2, dc.workers))
		default:
			c, err := Combine(runs...)
			if err != nil {
				t.Fatal(err)
			}
			digestOutcomes(round, AnalyzeAll(cities.Default(), c, core.Options{}, 2, dc.workers))
		}
	}

	var combined *Combined
	grey := prober.NewGreylist()
	if dc.stream || dc.pipelined {
		combined = cp.Combined()
		grey.Merge(cp.Greylist())
	} else {
		combined, err = Combine(runs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range runs {
			grey.Merge(run.Greylist)
		}
	}

	// Combined matrix: raw little-endian cells, row-major in VP order.
	fmt.Fprintf(&buf, "combined %d vps %d targets %d rounds\n",
		len(combined.VPs), len(combined.Targets), combined.Rounds)
	for v, vp := range combined.VPs {
		fmt.Fprintf(&buf, "vp %d %s\n", vp.ID, vp.Name)
		if err := binary.Write(&buf, binary.LittleEndian, combined.RTTus[v]); err != nil {
			t.Fatal(err)
		}
	}

	// Campaign greylist union: sorted snapshot.
	snap := grey.Snapshot()
	ips := make([]netsim.IP, 0, len(snap))
	for ip := range snap {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(a, b int) bool { return ips[a] < ips[b] })
	for _, ip := range ips {
		fmt.Fprintf(&buf, "grey %v %d\n", ip, snap[ip])
	}

	outcomes := AnalyzeAll(cities.Default(), combined, core.Options{}, 2, dc.workers)
	for _, o := range outcomes {
		fmt.Fprintf(&buf, "out %v n=%d cities=%v iter=%d\n",
			o.Target, o.Result.Count(), o.Result.Cities(), o.Result.Iterations)
	}
	return buf.Bytes()
}

// TestCensusDeterminism is the census's regression gate: a campaign's
// saved run bytes, per-round analysis outcomes, combined matrix and
// greylist union are byte-identical across worker counts, with the probe
// caches on or off, whether the rounds are batch-Combined, folded whole
// through a Campaign or probed span-pipelined at any span width.
func TestCensusDeterminism(t *testing.T) {
	ref := campaignDigest(t, digestConfig{workers: 1})
	for _, tc := range []struct {
		name string
		dc   digestConfig
	}{
		{"batch_cache_workers4", digestConfig{workers: 4}},
		{"batch_nocache_workers1", digestConfig{disableCache: true, workers: 1}},
		{"batch_nocache_workers4", digestConfig{disableCache: true, workers: 4}},
		{"stream_workers2", digestConfig{workers: 2, stream: true}},
		{"stream_nocache_workers4", digestConfig{disableCache: true, workers: 4, stream: true}},
		{"pipelined_default", digestConfig{workers: 4, pipelined: true}},
		{"pipelined_span17", digestConfig{workers: 3, pipelined: true, spanTargets: 17}},
		// Span-session bit-identity: the span-resident probe path (cache
		// on) against the uncached reference (cache off, where the span
		// resolver delegates every probe), across span widths from a
		// single target to one span per round and both worker counts.
		{"pipelined_span1_workers1", digestConfig{workers: 1, pipelined: true, spanTargets: 1}},
		{"pipelined_nocache_span17", digestConfig{disableCache: true, workers: 4, pipelined: true, spanTargets: 17}},
		{"pipelined_nocache_workers1_spanhuge", digestConfig{disableCache: true, workers: 1, pipelined: true, spanTargets: 1 << 20}},
	} {
		got := campaignDigest(t, tc.dc)
		if !bytes.Equal(ref, got) {
			t.Fatalf("%s: digest differs from batch workers=1 reference (%d vs %d bytes)", tc.name, len(got), len(ref))
		}
	}
}
