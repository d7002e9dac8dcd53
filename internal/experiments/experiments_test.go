package experiments

import (
	"strings"
	"sync"
	"testing"

	"anycastmap/internal/analysis"
	"anycastmap/internal/netsim"
)

// The shared test lab runs the full four-census campaign at a reduced
// unicast scale; every anycast-side quantity is at paper cardinality.
var (
	labOnce sync.Once
	testLab *Lab
)

func getLab(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("full campaign lab skipped in -short mode")
	}
	labOnce.Do(func() {
		cfg := DefaultLabConfig()
		cfg.Unicast24s = 6000
		testLab = NewLab(cfg)
	})
	return testLab
}

// getDefaultLab returns the default lab (20,000 /24s), the one
// cmd/experiments builds and EXPERIMENTS.md quotes.
func getDefaultLab(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("full campaign lab skipped in -short mode")
	}
	return DefaultLab()
}

// The expensive experiments over the shared lab run once for every test
// that reads them (their own test and TestScienceGolden); call getLab
// first.
var (
	labFig12        = sync.OnceValue(func() Fig12Result { return testLab.Fig12() })
	labRIPECensus   = sync.OnceValue(func() RIPECensusResult { return testLab.RIPECensus() })
	labLongitudinal = sync.OnceValue(func() LongitudinalResult { return testLab.Longitudinal(3, 150) })

	labLongitudinalCampaign = sync.OnceValue(func() LongitudinalCampaignResult { return testLab.LongitudinalCampaign(3, 60) })

	labAblateVPs       = sync.OnceValue(func() VPCountAblation { return testLab.AblateVPCount([]int{40, 120, 250}) })
	labAblateRate      = sync.OnceValue(func() RateAblation { return testLab.AblateRate([]float64{1000, 12000}) })
	labAblateIteration = sync.OnceValue(func() IterationAblation { return testLab.AblateIteration() })
	labAblateMIS       = sync.OnceValue(func() MISAblation { return testLab.AblateMIS(25) })
	labFusion          = sync.OnceValue(func() PlatformFusion { return testLab.FusePlatforms(10) })
	labBaselines       = sync.OnceValue(func() BaselineComparison { return testLab.Baselines(40) })
)

func between(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %v, want within [%v, %v]", name, got, lo, hi)
	}
}

func TestLabWorkflow(t *testing.T) {
	l := getLab(t)
	if len(l.Rounds) != 4 {
		t.Fatalf("lab ran %d censuses, want 4", len(l.Rounds))
	}
	for i, want := range []int{261, 255, 269, 240} {
		if got := l.Rounds[i].VPs; got != want {
			t.Errorf("census %d used %d VPs, want %d", i+1, got, want)
		}
	}
	if l.Hitlist.Len() >= l.Full.Len() {
		t.Error("pruning removed nothing")
	}
	if len(l.Findings) == 0 {
		t.Fatal("campaign detected nothing")
	}
}

// Each lab scans its own detections: a second lab in the process must not
// read the first lab's portscan.
func TestPortscanPerLab(t *testing.T) {
	for _, l := range []*Lab{getLab(t), getDefaultLab(t)} {
		var want []netsim.IP
		for _, f := range analysis.FilterMinReplicas(l.Findings, 5) {
			if ip, ok := l.World.Representative(f.Prefix); ok {
				want = append(want, ip)
			}
		}
		got := l.Portscan().Reports
		if len(got) != len(want) {
			t.Errorf("%d-/24 lab: portscan of %d hosts, want its %d >=5-replica /24s", l.Config.Unicast24s, len(got), len(want))
			continue
		}
		for i, ip := range want {
			if got[i].Target != ip {
				t.Errorf("%d-/24 lab: host %d is %v, want %v", l.Config.Unicast24s, i, got[i].Target, ip)
				break
			}
		}
	}
}

func TestFig4Funnel(t *testing.T) {
	r := getLab(t).Fig4()
	// The funnel must be monotone.
	if !(r.FullHitlist > r.PrunedTargets && r.PrunedTargets > r.EchoTargets &&
		r.EchoTargets > r.AnycastPrefixes) {
		t.Errorf("funnel not monotone: %+v", r)
	}
	// Extrapolations within 2x of the paper's magnitudes.
	between(t, "extrapolated pruned", float64(r.PrunedTargets)*r.Scale, 0.5*PaperPruned, 2*PaperPruned)
	between(t, "extrapolated echo", float64(r.EchoTargets)*r.Scale, 0.5*PaperResponsive, 2*PaperResponsive)
	between(t, "extrapolated greylist", float64(r.GreylistHosts)*r.Scale, 0.3*PaperGreylist, 3*PaperGreylist)
	// The needle in the haystack: detected anycast /24s close to the
	// paper's 1696, with no scaling (the inventory is at paper size).
	between(t, "anycast /24s", float64(r.AnycastPrefixes), 0.8*PaperAnycastIP24, 1.02*PaperAnycastIP24)
	if !strings.Contains(r.Report(), "paper") {
		t.Error("report should cite the paper values")
	}
}

func TestTable1Formats(t *testing.T) {
	r := getLab(t).Table1()
	if r.Samples == 0 {
		t.Fatal("no samples recorded")
	}
	sizeRatio := float64(r.TextBytesPerVP) / float64(r.BinaryBytesPerVP)
	between(t, "text/binary size ratio", sizeRatio, 5, 20) // paper ~13x
	if r.EstTextParse <= r.EstBinaryParse {
		t.Error("textual parsing should be slower (paper: >3 days vs 3 h)")
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestFig5PlatformGap(t *testing.T) {
	r := getLab(t).Fig5()
	if r.RIPEReplicas <= r.PLReplicas {
		t.Errorf("RIPE (%d) must out-resolve PlanetLab (%d) on Microsoft (paper: 54 vs 21)",
			r.RIPEReplicas, r.PLReplicas)
	}
	between(t, "PL replicas", float64(r.PLReplicas), 15, 35)       // paper 21
	between(t, "RIPE replicas", float64(r.RIPEReplicas), 40, 54)   // paper 54
	between(t, "PL-in-RIPE fraction", r.SubsetFraction, 0.45, 1.0) // paper: subset
}

func TestFig6BinaryRecall(t *testing.T) {
	r := getLab(t).Fig6()
	idx := map[string]int{}
	for i, p := range r.Protocols {
		idx[p] = i
	}
	di := map[string]int{}
	for i, d := range r.Deployments {
		di[d] = i
	}
	// ICMP is high everywhere.
	for d, i := range di {
		if r.Ratio[i][idx["ICMP"]] < 0.9 {
			t.Errorf("ICMP recall for %s = %.2f, want ~1", d, r.Ratio[i][idx["ICMP"]])
		}
	}
	// DNS/UDP answers only on actual DNS services.
	if r.Ratio[di["OPENDNS,US"]][idx["DNS/UDP"]] < 0.9 {
		t.Error("OpenDNS should answer DNS/UDP")
	}
	if r.Ratio[di["MICROSOFT,US"]][idx["DNS/UDP"]] > 0.1 {
		t.Error("Microsoft should not answer DNS/UDP")
	}
	if r.Ratio[di["EDGECAST,US"]][idx["TCP-80"]] < 0.9 {
		t.Error("EdgeCast should answer TCP-80")
	}
}

func TestFig7Validation(t *testing.T) {
	rs := getLab(t).Fig7()
	if len(rs) != 2 {
		t.Fatalf("want 2 validations, got %d", len(rs))
	}
	for _, r := range rs {
		p := PaperFig7[r.AS]
		between(t, r.AS+" TPR", r.Summary.MeanTPR, p.TPR-0.12, p.TPR+0.12)
		between(t, r.AS+" median err", r.Summary.MedianErrKm, 100, 700) // paper 434/287
		between(t, r.AS+" GT/PAI", r.Summary.MeanGTOverPAI, 0.5, 1.0)
		if r.Summary.Prefixes < 10 {
			t.Errorf("%s validated only %d /24s", r.AS, r.Summary.Prefixes)
		}
	}
	// CloudFlare's TPR exceeds EdgeCast's, as in the paper (77% vs 65%).
	if rs[0].Summary.MeanTPR <= rs[1].Summary.MeanTPR {
		t.Errorf("CloudFlare TPR (%.2f) should exceed EdgeCast's (%.2f)",
			rs[0].Summary.MeanTPR, rs[1].Summary.MeanTPR)
	}
}

func TestFig8Completion(t *testing.T) {
	r := getLab(t).Fig8()
	between(t, "within 2h", r.Within2h, 0.25, 0.55) // paper ~40%
	between(t, "within 5h", r.Within5h, 0.88, 0.99) // paper ~95%
	if r.Within5h <= r.Within2h {
		t.Error("CDF not monotone")
	}
}

func TestFig9BirdsEye(t *testing.T) {
	r := getLab(t).Fig9()
	between(t, "top ASes", float64(len(r.Rows)), 85, 125) // paper 100
	// Sorted by decreasing footprint.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Stat.MeanReplicas > r.Rows[i-1].Stat.MeanReplicas {
			t.Fatal("rows not sorted by mean replicas")
		}
	}
	// The paper's "no correlation" observation: weak Pearson.
	between(t, "footprint correlation", r.FootprintCorrelation, -0.2, 0.6) // paper 0.35
	// CloudFlare is among the top geographical footprints.
	foundCF := false
	for _, row := range r.Rows[:10] {
		if row.Stat.AS.Name == "CLOUDFLARENET,US" {
			foundCF = true
		}
	}
	if !foundCF {
		t.Error("CloudFlare missing from the top-10 geographical footprints")
	}
}

func TestFig10Glance(t *testing.T) {
	r := getLab(t).Fig10()
	p := PaperFig10
	between(t, "all /24s", float64(r.All.IP24s), 0.8*float64(p["All"].IP24s), 1.02*float64(p["All"].IP24s))
	between(t, "all ASes", float64(r.All.ASes), 0.8*float64(p["All"].ASes), 1.02*float64(p["All"].ASes))
	between(t, "all replicas", float64(r.All.Replicas), 0.8*float64(p["All"].Replicas), 1.25*float64(p["All"].Replicas))
	between(t, "min5 /24s", float64(r.Min5.IP24s), 0.8*float64(p["Min5"].IP24s), 1.25*float64(p["Min5"].IP24s))
	between(t, "min5 ASes", float64(r.Min5.ASes), 0.75*float64(p["Min5"].ASes), 1.35*float64(p["Min5"].ASes))
	between(t, "caida /24s", float64(r.CAIDA100.IP24s), 15, 23) // paper 19
	if r.CAIDA100.ASes != 8 {
		t.Errorf("CAIDA-100 ASes = %d, want 8", r.CAIDA100.ASes)
	}
	between(t, "alexa /24s", float64(r.Alexa100k.IP24s), 0.9*float64(p["Alexa-100k"].IP24s), 1.02*float64(p["Alexa-100k"].IP24s))
	if r.Alexa100k.ASes != 15 {
		t.Errorf("Alexa ASes = %d, want 15", r.Alexa100k.ASes)
	}
	// Nesting: each filtered row is a subset of All.
	if r.Min5.IP24s > r.All.IP24s || r.CAIDA100.IP24s > r.All.IP24s || r.Alexa100k.IP24s > r.All.IP24s {
		t.Error("filtered rows exceed the All row")
	}
}

func TestFig11Categories(t *testing.T) {
	r := getLab(t).Fig11()
	between(t, "DNS share", r.Share("DNS"), 0.22, 0.45) // paper ~1/3
	var sum float64
	for _, cs := range r.Breakdown {
		sum += cs.Share
	}
	between(t, "breakdown sum", sum, 0.999, 1.001)
	// DNS leads all categories (the paper's headline of Fig. 11) — with
	// the share-descending ordering, DNS must be the first entry.
	for _, cs := range r.Breakdown {
		if cs.Category != "DNS" && cs.Share > r.Share("DNS") {
			t.Errorf("category %s (%.2f) exceeds DNS (%.2f)", cs.Category, cs.Share, r.Share("DNS"))
		}
	}
	if len(r.Breakdown) > 0 && r.Breakdown[0].Category != "DNS" {
		t.Errorf("breakdown leads with %s, want DNS", r.Breakdown[0].Category)
	}
}

func TestFig12Combination(t *testing.T) {
	getLab(t)
	r := labFig12()
	if len(r.PerCensusCounts) != 4 {
		t.Fatal("want 4 per-census counts")
	}
	for _, n := range r.PerCensusCounts {
		if n > r.CombinedCount {
			t.Errorf("census found %d > combined %d", n, r.CombinedCount)
		}
	}
	if r.CombinationGain <= 0 {
		t.Errorf("combination gain = %v, want positive (paper ~+200)", r.CombinationGain)
	}
	between(t, "median replicas", r.MedianReplicas, 3, 10)
	between(t, "max replicas", float64(r.MaxReplicas), 20, 54)
}

func TestFig13Footprints(t *testing.T) {
	r := getLab(t).Fig13()
	between(t, "singleton share", r.SingletonShare, 0.3, 0.6) // paper ~50%
	for name, paper := range PaperFig13 {
		got := r.Named[name]
		lo := int(0.85 * float64(paper))
		if paper <= 3 {
			lo = paper - 1
		}
		if got < lo || got > paper {
			t.Errorf("%s measured %d /24s, want within [%d, %d] (paper %d)", name, got, lo, paper, paper)
		}
	}
}

func TestFig14Portscan(t *testing.T) {
	r := getLab(t).Fig14()
	s := r.Summary
	between(t, "responding IPs", float64(s.RespondingIPs), 0.8*float64(PaperFig14.IPs), 1.2*float64(PaperFig14.IPs))
	between(t, "scan ASes", float64(s.ASes), 0.85*float64(PaperFig14.ASes), 1.2*float64(PaperFig14.ASes))
	between(t, "union ports", float64(s.UnionPorts), 0.95*float64(PaperFig14.Ports), 1.05*float64(PaperFig14.Ports))
	between(t, "ssl union", float64(s.UnionSSL), 0.7*float64(PaperFig14.SSL), 1.3*float64(PaperFig14.SSL))
	between(t, "well-known union", float64(s.UnionWellKnown), 0.85*float64(PaperFig14.WellKnown), 1.15*float64(PaperFig14.WellKnown))
	between(t, "software", float64(s.Software), 25, 31) // paper 30
	// DNS, HTTP and HTTPS lead the per-AS port ranking.
	lead := map[uint16]bool{}
	for _, pc := range r.TopByAS[:3] {
		lead[pc.Port] = true
	}
	if !lead[53] || !lead[80] || !lead[443] {
		t.Errorf("per-AS top-3 ports = %v, want {53,80,443}", r.TopByAS[:3])
	}
	// The per-/24 ranking is CloudFlare-skewed: its 2xxx/8xxx range shows up.
	cfSkew := false
	for _, pc := range r.TopByPrefix {
		if pc.Port >= 2052 && pc.Port <= 2098 {
			cfSkew = true
		}
	}
	if !cfSkew {
		t.Error("per-/24 top-10 missing CloudFlare's 2xxx range (class imbalance, Sec. 4.3)")
	}
}

func TestFig15PortsPerAS(t *testing.T) {
	r := getLab(t).Fig15()
	for name, paper := range PaperFig15 {
		between(t, name+" ports", float64(r.Named[name]), 0.9*float64(paper), 1.02*float64(paper))
	}
	between(t, ">=1 port share", r.AtLeastOne, 0.6, 0.95)   // paper ~81%
	between(t, ">=5 ports share", r.AtLeastFive, 0.05, 0.3) // paper ~10%
	if r.AtLeastFive >= r.AtLeastOne {
		t.Error("CCDF not monotone")
	}
}

func TestFig16Software(t *testing.T) {
	r := getLab(t).Fig16()
	between(t, "implementations", float64(len(r.Breakdown)), 25, 31) // paper 30
	counts := map[string]int{}
	for _, sc := range r.Breakdown {
		counts[sc.Software] = sc.ASes
	}
	// ISC BIND is the most adopted DNS implementation; NSD runs on 3 ASes.
	if counts["ISC BIND"] <= counts["NLnet Labs NSD"] {
		t.Error("ISC BIND should dominate NSD")
	}
	if counts["NLnet Labs NSD"] != 3 {
		t.Errorf("NSD on %d ASes, want 3 (Apple, K-root, L-root)", counts["NLnet Labs NSD"])
	}
	// nginx leads the web servers (paper: 7 ASes).
	if counts["nginx"] < counts["Apache httpd"] {
		t.Error("nginx should lead Apache in the anycast world")
	}
	// The anycast ranking correlates only weakly with the unicast one.
	between(t, "unicast Spearman", r.UnicastRankSpearman, 0.0, 0.85) // paper 0.38
}

func TestCoverageCheck(t *testing.T) {
	r := getLab(t).Coverage()
	between(t, "hitlist coverage", r.Fraction, 0.999, 1.0)        // paper 99.99%
	between(t, "anycast /24 share", r.AnycastSlash24, 0.84, 0.92) // paper 88%
}

func TestOpenDNSConsistency(t *testing.T) {
	r := getLab(t).OpenDNS()
	if r.TrueSites != 24 {
		t.Fatalf("OpenDNS pinned to %d sites, want 24", r.TrueSites)
	}
	counts := r.InstancesByProtocol
	if len(counts) != 5 {
		t.Fatalf("protocols = %v", counts)
	}
	// Consistency: every protocol sees nearly the same instance count
	// (paper: 15-17 across protocols).
	lo, hi := 1<<30, 0
	for _, n := range counts {
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi-lo > 3 {
		t.Errorf("instance counts spread too wide: %v", counts)
	}
	between(t, "instances", float64(counts["ICMP"]), 14, 24)
	if r.TotalLocated > 0 && float64(r.CorrectCities)/float64(r.TotalLocated) < 0.6 {
		t.Errorf("only %d/%d OpenDNS cities correct", r.CorrectCities, r.TotalLocated)
	}
}

func TestAllReportsRender(t *testing.T) {
	l := getLab(t)
	reports := []string{
		l.Table1().Report(), l.Fig4().Report(), l.Fig5().Report(),
		l.Fig6().Report(), ReportFig7(l.Fig7()), l.Fig8().Report(),
		l.Fig9().Report(), l.Fig10().Report(), l.Fig11().Report(),
		l.Fig13().Report(), l.Fig14().Report(),
		l.Fig15().Report(), l.Fig16().Report(), l.Coverage().Report(),
		l.OpenDNS().Report(),
	}
	for i, rep := range reports {
		if len(rep) < 40 {
			t.Errorf("report %d suspiciously short: %q", i, rep)
		}
	}
}
