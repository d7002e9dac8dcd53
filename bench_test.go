// Package anycastmap's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (Table 1 and Figs. 4-16, plus the
// Sec. 3.1 coverage check and the Sec. 3.4 OpenDNS consistency check).
//
// All benchmarks share one lab - a fully executed four-census campaign
// against the synthetic Internet at the default 20,000-unicast-/24 scale -
// built once on first use. Each benchmark measures the cost of
// regenerating its experiment's data from the campaign; correctness of the
// values against the paper is asserted by the tests in
// internal/experiments.
//
// Run with:
//
//	go test -bench=. -benchmem
package anycastmap_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"anycastmap/internal/experiments"
	"anycastmap/internal/netsim"
	"anycastmap/internal/store"
)

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	l := experiments.DefaultLab()
	b.ResetTimer()
	return l
}

func BenchmarkTable1_RecordFormats(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Table1()
		if r.BinaryBytesPerVP >= r.TextBytesPerVP {
			b.Fatal("binary format not smaller than textual")
		}
	}
}

func BenchmarkFig4_CensusFunnel(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig4()
		if r.AnycastPrefixes == 0 {
			b.Fatal("no anycast detected")
		}
	}
}

func BenchmarkFig5_PlatformRecall(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig5()
		if r.RIPEReplicas <= r.PLReplicas {
			b.Fatalf("RIPE (%d) should out-resolve PlanetLab (%d)", r.RIPEReplicas, r.PLReplicas)
		}
	}
}

func BenchmarkFig6_ProtocolRecall(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig6()
		if len(r.Ratio) != 4 {
			b.Fatal("protocol matrix incomplete")
		}
	}
}

func BenchmarkFig7_Validation(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		rs := l.Fig7()
		if len(rs) != 2 {
			b.Fatal("want CloudFlare and EdgeCast validations")
		}
	}
}

func BenchmarkFig8_CompletionTime(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig8()
		if len(r.CDF) == 0 {
			b.Fatal("empty completion CDF")
		}
	}
}

func BenchmarkFig9_Top100(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig9()
		if len(r.Rows) == 0 {
			b.Fatal("no top ASes")
		}
	}
}

func BenchmarkFig10_AtAGlance(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig10()
		if r.All.IP24s == 0 || r.Min5.IP24s == 0 {
			b.Fatal("empty glance")
		}
	}
}

func BenchmarkFig11_CategoryBreakdown(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig11()
		if r.Share("DNS") == 0 {
			b.Fatal("no DNS share")
		}
	}
}

func BenchmarkFig12_ReplicaCDF(b *testing.B) {
	l := lab(b)
	// Fig12 re-analyzes every census individually: by far the most
	// expensive regeneration.
	for i := 0; i < b.N; i++ {
		r := l.Fig12()
		if r.CombinedCount == 0 {
			b.Fatal("no combined detections")
		}
	}
}

func BenchmarkFig13_SubnetsPerAS(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig13()
		if len(r.CDF) == 0 {
			b.Fatal("empty subnet CDF")
		}
	}
}

func BenchmarkFig14_Portscan(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig14()
		if r.Summary.UnionPorts == 0 {
			b.Fatal("no ports found")
		}
	}
}

func BenchmarkFig15_PortsCCDF(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig15()
		if len(r.CCDF) == 0 {
			b.Fatal("empty ports CCDF")
		}
	}
}

func BenchmarkFig16_Software(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Fig16()
		if len(r.Breakdown) == 0 {
			b.Fatal("no software found")
		}
	}
}

func BenchmarkCoverage_Sec31(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Coverage()
		if r.Routed24s == 0 {
			b.Fatal("empty routing table")
		}
	}
}

func BenchmarkOpenDNS_Sec34(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.OpenDNS()
		if len(r.InstancesByProtocol) != 5 {
			b.Fatal("protocol set incomplete")
		}
	}
}

func BenchmarkAblationVPCount(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.AblateVPCount([]int{60, 200})
		if r.Detected24s[1] < r.Detected24s[0] {
			b.Fatal("VP-count ablation not monotone")
		}
	}
}

func BenchmarkAblationRate(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.AblateRate([]float64{1000, 12000})
		if r.EchoFraction[1] >= r.EchoFraction[0] {
			b.Fatal("rate ablation shows no loss")
		}
	}
}

func BenchmarkAblationIteration(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.AblateIteration()
		if r.IteratedReplicas < r.SingleShotReplicas {
			b.Fatal("iteration lost recall")
		}
	}
}

func BenchmarkAblationMIS(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.AblateMIS(25)
		if r.EqualCount == 0 {
			b.Fatal("greedy never optimal")
		}
	}
}

// BenchmarkFullCampaign measures the end-to-end cost of one complete
// census campaign (world build + blacklist + 4 censuses + combination +
// analysis) at a reduced scale, the headline "one census in under 5 hours"
// system result of the paper scaled to the simulator.
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultLabConfig()
		cfg.Unicast24s = 4000
		cfg.Seed = uint64(3000 + i)
		l := experiments.NewLab(cfg)
		if len(l.Findings) == 0 {
			b.Fatal("campaign found nothing")
		}
	}
}

// --- anycastd serving path -------------------------------------------------
//
// The store benchmarks measure the hot path of cmd/anycastd: classifying
// IPs against the published census index. Cold is the O(log n) index
// walk, batch is the bulk endpoint, and ConcurrentReadersDuringRefresh
// measures reader throughput while fresh snapshots hot-swap underneath.

var (
	benchStoreOnce sync.Once
	benchStore     *store.Store
	benchIPs       []netsim.IP // alternating anycast / unicast addresses
)

func benchServing(b *testing.B) (*store.Store, []netsim.IP) {
	b.Helper()
	l := experiments.DefaultLab()
	benchStoreOnce.Do(func() {
		benchStore = store.New(store.Options{})
		benchStore.Publish(store.NewSnapshot(l.Findings, l.World.Registry, 4, 4))
		for i, f := range l.Findings {
			benchIPs = append(benchIPs, f.Prefix.Host(byte(i)))
			// An address one /24 above is unicast with overwhelming
			// probability: the negative lookup path.
			benchIPs = append(benchIPs, (f.Prefix + 1).Host(byte(i)))
		}
	})
	b.ResetTimer()
	return benchStore, benchIPs
}

func reportLookupRate(b *testing.B, lookups int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(lookups)/sec, "lookups/s")
	}
}

// BenchmarkStoreLookupCold measures the lookup path: the snapshot's binary
// search, which every Store.Lookup runs.
func BenchmarkStoreLookupCold(b *testing.B) {
	st, ips := benchServing(b)
	snap := st.Current()
	n := 0
	for i := 0; i < b.N; i++ {
		_, ok := snap.Lookup(ips[i%len(ips)])
		if i%2 == 0 && !ok {
			b.Fatal("anycast IP missed the index")
		}
		n++
	}
	reportLookupRate(b, n)
}

// BenchmarkStoreLookupBatch measures the bulk endpoint's per-IP cost with
// 1024-address batches.
func BenchmarkStoreLookupBatch(b *testing.B) {
	st, ips := benchServing(b)
	batch := make([]netsim.IP, 1024)
	for i := range batch {
		batch[i] = ips[i%len(ips)]
	}
	total := 0
	for i := 0; i < b.N; i++ {
		answers := st.LookupBatch(batch)
		if len(answers) != len(batch) {
			b.Fatal("short batch answer")
		}
		total += len(answers)
	}
	reportLookupRate(b, total)
}

// BenchmarkStoreConcurrentReadersDuringRefresh measures parallel reader
// throughput while a background goroutine keeps rebuilding and
// hot-swapping snapshots — the zero-downtime refresh claim as a number.
func BenchmarkStoreConcurrentReadersDuringRefresh(b *testing.B) {
	l := experiments.DefaultLab()
	st := store.New(store.Options{})
	st.Publish(store.NewSnapshot(l.Findings, l.World.Registry, 4, 4))
	var ips []netsim.IP
	for i, f := range l.Findings {
		ips = append(ips, f.Prefix.Host(byte(i)))
	}

	stop := make(chan struct{})
	var swaps atomic.Uint64
	var swapperWg sync.WaitGroup
	swapperWg.Add(1)
	go func() {
		defer swapperWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// A fresh snapshot each time: published snapshots are
				// immutable, so re-publishing one is not allowed.
				st.Publish(store.NewSnapshot(l.Findings, l.World.Registry, 4, 4))
				swaps.Add(1)
			}
		}
	}()

	b.ResetTimer()
	var n atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ans := st.Lookup(ips[i%len(ips)])
			if !ans.Anycast {
				b.Error("anycast IP classified unicast during refresh")
				return
			}
			i++
			n.Add(1)
		}
	})
	b.StopTimer()
	// Let the swapper land at least one snapshot before stopping so the
	// metric below is meaningful even on the tiny calibration runs.
	for swaps.Load() == 0 {
		runtime.Gosched()
	}
	close(stop)
	swapperWg.Wait()
	reportLookupRate(b, int(n.Load()))
	b.ReportMetric(float64(swaps.Load())/b.Elapsed().Seconds(), "swaps/s")
}
