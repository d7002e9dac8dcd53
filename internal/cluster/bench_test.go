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
)

// The fleet yardstick: the benchmark's census-fleet workload in its
// shape — two rounds of 261 PlanetLab vantage points over 88 targets, one
// lease per (VP, round), a tenth of the vantage points crashing once and
// recovering on the 1 ms retry — so a lease's probing is a few tens of
// microseconds and the control plane's cost per lease reads directly
// against it. BenchmarkFleetRoundLocal runs the same rounds through the
// one-process executor; `go test -bench Fleet -cpu 1 ./internal/cluster`
// prints both, and their ratio is what distribution costs.
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
	leases := 0
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
		leases += coord.Stats().Leases
		hs.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(leases), "ns/lease")
	b.ReportMetric(float64(leases)/float64(b.N), "leases/op")
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

// BenchmarkLeaseCodec is one lease across the wire: appended into a
// reused buffer (no allocation), and decoded into a value (the vantage
// point's three strings are the only allocations).
func BenchmarkLeaseCodec(b *testing.B) {
	fleetBed(b)
	l := leaseMsg{ID: 1 << 20, Round: 2, Attempt: 1, Slot: 137, VP: fleetRounds[0][137], Lo: 0, Hi: 88}
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
			if got, err := decodeLease(buf); err != nil || got != l {
				b.Fatalf("decoded %+v, %v", got, err)
			}
		}
	})
}
