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

// digestConfig selects one pipeline variant for campaignDigest: the census
// worker count and the combine path - batch Combine of whole rounds,
// folding each whole round into a Campaign, or the production path,
// ExecuteRoundPipelined over one span per round.
type digestConfig struct {
	workers   int
	stream    bool
	pipelined bool
}

// anchorSpan is wider than any digest's target list: the anchor probes
// each round as one span.
const anchorSpan = 1 << 20

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
				PipelineConfig{SpanTargets: anchorSpan})
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
			// because the row is one span.
			for i, st := range run.Stats {
				if sum.Completion[i] != st.Completion {
					t.Fatalf("round %d VP %d pipelined completion %v != whole-round %v",
						round, i, sum.Completion[i], st.Completion)
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

// TestCensusDeterminism holds the whole-run references to the production
// path. A campaign probed span-pipelined by one worker over one span per
// round - the anchor of cluster's TestExecutorsDifferential, which holds
// every executor, worker count and span width to it - must match, in saved
// run bytes, per-round analysis outcomes, combined matrix and greylist
// union, the whole rounds batch-Combined and the whole rounds folded
// through a Campaign. netsim's bit-identity tests hold the probe path to
// the model's reference.
func TestCensusDeterminism(t *testing.T) {
	anchor := campaignDigest(t, digestConfig{workers: 1, pipelined: true})
	for _, tc := range []struct {
		name string
		dc   digestConfig
	}{
		{"batch_workers1", digestConfig{workers: 1}},
		{"stream_workers2", digestConfig{workers: 2, stream: true}},
	} {
		got := campaignDigest(t, tc.dc)
		if !bytes.Equal(anchor, got) {
			t.Fatalf("%s: digest differs from the pipelined one-span anchor (%d vs %d bytes)", tc.name, len(got), len(anchor))
		}
	}
}
