package census

import (
	"bytes"
	"context"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// synthRuns fabricates census runs with a deterministic sparse latency
// matrix: Combine's cost depends only on the matrix shape, not on how the
// samples were measured, so the benchmark skips the probing entirely.
func synthRuns(rounds, nVPs, nTargets int) []*Run {
	targets := make([]netsim.IP, nTargets)
	for t := range targets {
		targets[t] = netsim.IP(1<<24 + t<<8 + 1)
	}
	vps := spreadVPs(nVPs)
	runs := make([]*Run, rounds)
	for r := range runs {
		rttus := make([][]int32, nVPs)
		for v := range rttus {
			row := make([]int32, nTargets)
			for t := range row {
				// ~60% of cells hold a sample, like a real census row.
				h := detrand.Hash64(uint64(r), uint64(v), uint64(t))
				if h%10 < 6 {
					row[t] = int32(h % 200_000)
				} else {
					row[t] = noSample
				}
			}
			rttus[v] = row
		}
		runs[r] = &Run{Round: uint64(r + 1), VPs: vps, Targets: targets, RTTus: rttus, Greylist: prober.NewGreylist()}
	}
	return runs
}

// spreadVPs spreads n hosts over the globe so the analysis benchmarks see
// non-degenerate disk geometry (co-located VPs would make every target
// trivially unicast).
func spreadVPs(n int) []platform.VP {
	vps := make([]platform.VP, n)
	for v := range vps {
		vps[v] = platform.VP{ID: v, Name: "vp", LoadFactor: 1,
			Loc: geo.Coord{Lat: float64(v*29%140) - 70, Lon: float64(v*67%360) - 180}}
	}
	return vps
}

// BenchmarkCombine measures the minimum-RTT merge of a four-census campaign
// at a 200 VP x 20k target scale.
func BenchmarkCombine(b *testing.B) {
	runs := synthRuns(4, 200, 20_000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := Combine(runs...)
		if err != nil {
			b.Fatal(err)
		}
		if len(c.VPs) != 200 {
			b.Fatal("lost VPs in combine")
		}
	}
}

// BenchmarkFoldRun measures the streaming fold of the same campaign: the
// bounded-memory path must not cost more than the batch merge.
func BenchmarkFoldRun(b *testing.B) {
	runs := synthRuns(4, 200, 20_000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp := NewCampaign(CampaignConfig{})
		for _, run := range runs {
			if err := cp.FoldRun(run); err != nil {
				b.Fatal(err)
			}
		}
		if len(cp.Combined().VPs) != 200 {
			b.Fatal("lost VPs in fold")
		}
	}
}

// BenchmarkAnalyzeAll measures the work-stealing detection + geolocation
// pass over a combined four-census campaign.
func BenchmarkAnalyzeAll(b *testing.B) {
	runs := synthRuns(4, 120, 5_000)
	c, err := Combine(runs...)
	if err != nil {
		b.Fatal(err)
	}
	db := cities.Default()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := AnalyzeAll(db, c, core.Options{}, 2, 0); len(out) == 0 {
			b.Fatal("no anycast detected")
		}
	}
}

// BenchmarkAnalyzeAllSampled is AnalyzeAll at the shape of the repository
// benchmark's census-dense rep: 400 vantage points, 6 anycast and 60 unicast
// targets, where what an analysis costs before its first target - the
// VP-pair distance matrix - outweighs the targets. warm repeats one VP list,
// so after the first iteration every pair comes out of the process-wide
// table; cold moves every vantage point a centimetre per iteration, so no
// pair is ever found there and each iteration measures all 79,800, as every
// AnalyzeAll did before the table existed.
func BenchmarkAnalyzeAllSampled(b *testing.B) {
	const nVPs, nAnycast, nUnicast = 400, 6, 60
	db := cities.Default()
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			c := sampledCensus(b, nVPs, nAnycast, nUnicast)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					for v := range c.VPs {
						c.VPs[v].Loc.Lat += 1e-7
					}
				}
				if out := AnalyzeAll(db, c, core.Options{}, 2, 0); len(out) != nAnycast {
					b.Fatalf("%d anycast targets detected, want %d", len(out), nAnycast)
				}
			}
		})
	}
}

// sampledCensus fabricates one round from nVPs spread vantage points over
// nAnycast anycast targets followed by nUnicast unicast ones. Hosts sit at
// vantage-point locations and a reply costs 1.5x the fiber propagation plus
// 2 ms; anycast target t answers from the nearest of t+2 far-apart sites.
func sampledCensus(tb testing.TB, nVPs, nAnycast, nUnicast int) *Combined {
	vps := spreadVPs(nVPs)
	rtt := func(v, t int) int32 {
		sites := 1
		if t < nAnycast {
			sites = t + 2
		}
		best := int32(1 << 30)
		for s := 0; s < sites; s++ {
			host := vps[(t*53+s*(nVPs/sites))%nVPs].Loc
			us := int32(1.5*float64(geo.PropagationRTT(vps[v].Loc, host).Microseconds())) + 2_000
			if us < best {
				best = us
			}
		}
		return best
	}
	c, err := Combine(handRun(1, vps, nAnycast+nUnicast, rtt))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkRoundPipelined measures one census round through
// ExecuteRoundPipelined - the production probing path, span plans shared by
// every unit of a span - from 261 PlanetLab vantage points over one span, in
// ns per probe, on the two span shapes that matter: the benchmark's sampled
// census (8 anycast and 80 unicast targets spread over a 25k-/24 world) and
// a dense census span of 16,384 consecutive targets. Sessions are built
// before the timer starts, so the figure is planning, probing and folding.
func BenchmarkRoundPipelined(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 25000
	w := netsim.New(cfg)
	full := hitlist.FromWorld(w).PruneNeverAlive()
	vps := platform.PlanetLab(cities.Default()).Sample(261, 1)
	var anycast, unicast []netsim.IP
	for _, ip := range full.Targets() {
		if w.IsAnycast(ip.Prefix()) {
			anycast = append(anycast, ip)
		} else {
			unicast = append(unicast, ip)
		}
	}
	keep := func(picks ...[]netsim.IP) *hitlist.Hitlist {
		drop := make(map[netsim.IP]bool, full.Len())
		for _, ip := range full.Targets() {
			drop[ip] = true
		}
		for _, pick := range picks {
			for _, ip := range pick {
				delete(drop, ip)
			}
		}
		return full.Without(drop)
	}
	every := func(list []netsim.IP, n int) []netsim.IP {
		out := make([]netsim.IP, n)
		for i := range out {
			out[i] = list[i*len(list)/n]
		}
		return out
	}
	for _, shape := range []struct {
		name string
		h    *hitlist.Hitlist
	}{
		{"sampled88", keep(every(anycast, 8), every(unicast, 80))},
		{"dense16k", keep(full.Targets()[:DefaultSpanTargets])},
	} {
		b.Run(shape.name, func(b *testing.B) {
			ccfg := CampaignConfig{Census: Config{Seed: 5}}
			round := func(r uint64) int {
				sum, err := NewCampaign(ccfg).ExecuteRoundPipelined(context.Background(), w, vps, shape.h, nil, r, PipelineConfig{})
				if err != nil {
					b.Fatal(err)
				}
				return sum.Probes
			}
			round(1) // build every vantage point's session
			b.ReportAllocs()
			b.ResetTimer()
			probes := 0
			for i := 0; i < b.N; i++ {
				probes += round(uint64(i%2 + 1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
		})
	}
}

// BenchmarkSaveRunV2 measures the columnar encoder at one-census scale.
func BenchmarkSaveRunV2(b *testing.B) {
	run := synthRuns(1, 200, 20_000)[0]
	var buf bytes.Buffer
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := SaveRun(&buf, run); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkLoadRunV2 measures the columnar decoder at one-census scale.
func BenchmarkLoadRunV2(b *testing.B) {
	run := synthRuns(1, 200, 20_000)[0]
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LoadRun(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
