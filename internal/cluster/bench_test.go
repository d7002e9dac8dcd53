package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// The fleet yardstick: the benchmark's census-fleet workload in its
// shape — two rounds of 261 PlanetLab vantage points over 88 targets, one
// unit per (VP, round), a tenth of the vantage points crashing once and
// recovering on the 1 ms retry — so a unit's probing is a few tens of
// microseconds and the control plane's cost per lease reads directly
// against it. The span is far narrower than ShardTargets, so a lease
// carries a batch of units (`units/lease`): up to an even share of the
// open vantage points across the two agents. Each agent plans the one
// span once per round, so a rep builds at most 4 plans (`plans/op`), not
// one per lease.
// BenchmarkFleetRoundLocal runs the same rounds through the one-process
// executor; `go test -bench Fleet -cpu 1 ./internal/cluster` prints both,
// and their ratio is what distribution costs.
var (
	fleetOnce    sync.Once
	fleetCfg     netsim.Config
	fleetFaults  netsim.FaultConfig
	fleetWorld   *netsim.World // with the crash plan installed
	fleetTargets *hitlist.Hitlist
	fleetRounds  [][]platform.VP
)

func fleetCensusCfg() census.Config {
	return census.Config{Seed: 2015, MaxAttempts: 5, RetryBackoff: time.Millisecond}
}

func fleetBed(tb testing.TB) {
	tb.Helper()
	fleetOnce.Do(func() {
		fleetCfg = netsim.DefaultConfig()
		fleetCfg.Seed = 2015
		fleetCfg.Unicast24s = 25000
		w := netsim.New(fleetCfg)
		pruned := hitlist.FromWorld(w).PruneNeverAlive()
		// 88 targets at even steps through the pruned list.
		const want = 88
		drop := make(map[netsim.IP]bool, pruned.Len())
		for _, ip := range pruned.Targets() {
			drop[ip] = true
		}
		for k := 0; k < want; k++ {
			delete(drop, pruned.Targets()[(2*k+1)*pruned.Len()/(2*want)])
		}
		fleetTargets = pruned.Without(drop)
		fleetFaults = netsim.FaultConfig{Seed: 2015, CrashFraction: 0.10}
		plan, err := netsim.NewFaultPlan(fleetFaults)
		if err != nil {
			panic(err)
		}
		fleetWorld = w.WithFaults(plan)
		pl := platform.PlanetLab(cities.Default())
		fleetRounds = [][]platform.VP{pl.Sample(261, 2016), pl.Sample(261, 2017)}
	})
	if fleetTargets.Len() != 88 {
		tb.Fatalf("fleet bed has %d targets, want 88", fleetTargets.Len())
	}
}

func BenchmarkFleetRound(b *testing.B) {
	fleetBed(b)
	ccfg := fleetCensusCfg()
	leases, units := 0, 0
	plans := prober.DefaultMetrics.Plans.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
		coord, err := NewCoordinator(Config{
			Campaign: cp, Targets: fleetTargets.Targets(), Census: ccfg,
			World: fleetCfg, Faults: &fleetFaults,
		})
		if err != nil {
			b.Fatal(err)
		}
		hs, err := NewHarness(coord, HarnessConfig{Agents: 2, Agent: AgentConfig{World: fleetWorld, Capacity: 1}})
		if err != nil {
			coord.Close()
			b.Fatal(err)
		}
		for r, vps := range fleetRounds {
			if _, err := coord.ExecuteRound(context.Background(), uint64(r+1), vps); err != nil {
				hs.Close()
				b.Fatalf("round %d: %v", r+1, err)
			}
		}
		st := coord.Stats()
		leases, units = leases+st.Leases, units+st.Units
		hs.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(leases), "ns/lease")
	b.ReportMetric(float64(leases)/float64(b.N), "leases/op")
	b.ReportMetric(float64(units)/float64(leases), "units/lease")
	b.ReportMetric(float64(prober.DefaultMetrics.Plans.Load()-plans)/float64(b.N), "plans/op")
}

func BenchmarkFleetRoundLocal(b *testing.B) {
	fleetBed(b)
	ccfg := fleetCensusCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
		for r, vps := range fleetRounds {
			if _, err := cp.ExecuteRoundPipelined(context.Background(), fleetWorld, vps, fleetTargets, nil, uint64(r+1), census.PipelineConfig{}); err != nil {
				b.Fatalf("round %d: %v", r+1, err)
			}
		}
	}
}

// BenchmarkLeaseCodec is one lease of census-fleet's first batch across
// the wire — 131 units, an even share of 261 vantage points between two
// agents — appended into a reused buffer (no allocation), and decoded
// into a value (the unit slice, its slot check and each vantage point's
// three strings are the allocations).
func BenchmarkLeaseCodec(b *testing.B) {
	fleetBed(b)
	l := leaseMsg{ID: 1 << 20}
	for i, vp := range fleetRounds[0][:131] {
		l.Units = append(l.Units, census.Unit{Round: 2, Attempt: i % 2, Slot: i, VP: vp, Span: census.Span{Hi: 88}})
	}
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendLease(buf[:0], &l)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("decode", func(b *testing.B) {
		buf := appendLease(nil, &l)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, err := decodeLease(buf); err != nil || len(got.Units) != len(l.Units) {
				b.Fatalf("decoded %d units, %v", len(got.Units), err)
			}
		}
	})
}
