package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"anycastmap/internal/analysis"
	"anycastmap/internal/stats"
)

var updateScience = flag.Bool("update", false, "rewrite testdata/science.golden from this checkout's lab")

// TestScienceGolden pins the reproduction's numbers exactly, at the
// default seed, in two blocks. The shared test lab (6,000 /24s) pins the
// Fig. 4 funnel, all four Fig. 10 rows, Fig. 7's TPR and median error per
// AS, the Fig. 8 completion fractions, Fig. 12's per-census and combined
// counts, the RIPE what-if, both longitudinal extensions and the
// ablations its own tests run. The default lab (20,000 /24s, what
// cmd/experiments builds) pins every deterministic cell EXPERIMENTS.md
// quotes; TestExperimentsDoc holds the doc to this file. The between(...)
// checks in the figure tests say the numbers still look like the paper;
// this one says they did not move, so a refactor that drifts the science
// fails with a diff instead of sliding inside a tolerance. A change that
// means to move them regenerates the file with
//
//	go test -run TestScienceGolden ./internal/experiments -update
//
// and says so; any other change must leave it alone.
func TestScienceGolden(t *testing.T) {
	got := scienceLines(getLab(t)) + defaultLabLines(getDefaultLab(t))
	if *updateScience {
		if err := os.WriteFile(sciencePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sciencePath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("science moved:\n  golden: %s\n  now:    %s", w, g)
		}
	}
}

const sciencePath = "testdata/science.golden"

// headLines opens a lab's block: the header, then the lines both blocks
// pin, in the format the test lab's block has always had.
func headLines(b *strings.Builder, l *Lab, f12 Fig12Result) {
	fmt.Fprintf(b, "# lab seed %d, %d unicast /24s; regenerate with go test -run TestScienceGolden ./internal/experiments -update\n",
		l.Config.Seed, l.Config.Unicast24s)
	f4 := l.Fig4()
	fmt.Fprintf(b, "fig4 hitlist=%d pruned=%d echo=%d greylist=%d valid=%d anycast=%d\n",
		f4.FullHitlist, f4.PrunedTargets, f4.EchoTargets, f4.GreylistHosts, f4.ValidTargets, f4.AnycastPrefixes)
	f10 := l.Fig10()
	for _, row := range []struct {
		name string
		g    analysis.Glance
	}{{"all", f10.All}, {"min5", f10.Min5}, {"caida100", f10.CAIDA100}, {"alexa100k", f10.Alexa100k}} {
		fmt.Fprintf(b, "fig10 %s ip24s=%d ases=%d cities=%d cc=%d replicas=%d\n",
			row.name, row.g.IP24s, row.g.ASes, row.g.Cities, row.g.CC, row.g.Replicas)
	}
	for _, r := range l.Fig7() {
		fmt.Fprintf(b, "fig7 %s tpr=%.6f median_err_km=%.3f prefixes=%d\n",
			asLabel(r.AS), r.Summary.MeanTPR, r.Summary.MedianErrKm, r.Summary.Prefixes)
	}
	f8 := l.Fig8()
	fmt.Fprintf(b, "fig8 vp_runs=%d within2h=%.6f within5h=%.6f\n",
		len(f8.HoursAtPaperScale), f8.Within2h, f8.Within5h)
	fmt.Fprintf(b, "fig12 per_census=%v combined=%d\n", f12.PerCensusCounts, f12.CombinedCount)
}

// asLabel is an AS name without its country: "CLOUDFLARENET,US" reads
// CLOUDFLARENET.
func asLabel(name string) string { return strings.Split(name, ",")[0] }

// scienceLines renders the shared test lab's block, one figure row per
// line. Floats carry a fixed precision, well above the paper's own.
func scienceLines(l *Lab) string {
	var b strings.Builder
	headLines(&b, l, labFig12())
	ripe := labRIPECensus()
	fmt.Fprintf(&b, "ripe pl_single=%d ripe=%d ripe_replicas=%d\n",
		ripe.PLSingleDetected, ripe.RIPEDetected, ripe.RIPEReplicas)
	for _, e := range labLongitudinal().Epochs {
		fmt.Fprintf(&b, "longitudinal epoch=%d truth=%d detected=%d replicas=%d new_cities=%d lost_cities=%d\n",
			e.Epoch, e.TrueReplicas, e.Detected24s, e.Replicas, e.NewCities, e.LostCities)
	}
	for _, rd := range labLongitudinalCampaign().Rounds {
		fmt.Fprintf(&b, "longcampaign round=%d detected=%d\n", rd.Round, rd.Detected24s)
	}
	vps := labAblateVPs()
	for i, n := range vps.VPCounts {
		fmt.Fprintf(&b, "ablate-vps vps=%d detected=%d replicas=%d truth=%d\n", n, vps.Detected24s[i], vps.Replicas[i], vps.Truth24s)
	}
	rate := labAblateRate()
	for i, r := range rate.Rates {
		fmt.Fprintf(&b, "ablate-rate rate=%.0f echo_fraction=%.6f dropped=%d\n", r, rate.EchoFraction[i], rate.Dropped[i])
	}
	it := labAblateIteration()
	fmt.Fprintf(&b, "ablate-iter prefixes=%d single=%d iterated=%d\n", it.Prefixes, it.SingleShotReplicas, it.IteratedReplicas)
	mis := labAblateMIS()
	fmt.Fprintf(&b, "ablate-mis instances=%d greedy_optimal=%d\n", mis.Instances, mis.EqualCount)
	fu := labFusion()
	fmt.Fprintf(&b, "fusion prefixes=%d pl_replicas=%d refined_replicas=%d\n", fu.Prefixes, fu.PLReplicas, fu.RefinedReplicas)
	bl := labBaselines()
	fmt.Fprintf(&b, "baselines dns=%d truth=%d chaos=%d igreedy=%d non_dns=%d chaos_non_dns=%d\n",
		bl.DNSTargets, bl.TruthTotal, bl.CHAOSTotal, bl.IGreedyTotal, bl.NonDNSTargets, bl.CHAOSNonDNSAnswers)
	fmt.Fprintf(&b, "baselines db_replicas=%d db_matches=%d unicast=%d cbg_unicast=%d anycast=%d cbg_anycast=%d\n",
		bl.DBReplicaTotal, bl.DBReplicaMatches, bl.UnicastTargets, bl.CBGFeasibleUnicast, bl.AnycastTargets, bl.CBGFeasibleAnycast)
	return b.String()
}

// defaultLabLines renders the default lab's block: the head lines, then
// every deterministic cell the paper's tables and figures have in
// EXPERIMENTS.md. Table 1's parse times and Fig. 9's ports depend on the
// machine or repeat Fig. 14, and are not here.
func defaultLabLines(l *Lab) string {
	var b strings.Builder
	f12 := l.Fig12()
	headLines(&b, l, f12)
	t1 := l.Table1()
	fmt.Fprintf(&b, "table1 samples=%d binary_bytes=%d text_bytes=%d est_binary_bytes=%d est_text_bytes=%d\n",
		t1.Samples, t1.BinaryBytesPerVP, t1.TextBytesPerVP, t1.EstBinaryCensusBytes, t1.EstTextCensusBytes)
	f5 := l.Fig5()
	fmt.Fprintf(&b, "fig5 truth=%d pl=%d ripe=%d pl_in_ripe=%.6f\n", f5.TrueReplicas, f5.PLReplicas, f5.RIPEReplicas, f5.SubsetFraction)
	f6 := l.Fig6()
	for i, d := range f6.Deployments {
		fmt.Fprintf(&b, "fig6 %s", asLabel(d))
		for j, p := range f6.Protocols {
			fmt.Fprintf(&b, " %s=%.6f", p, f6.Ratio[i][j])
		}
		b.WriteString("\n")
	}
	for _, r := range l.Fig7() {
		fmt.Fprintf(&b, "fig7 %s tpr_sd=%.6f gt_pai=%.6f\n", asLabel(r.AS), r.Summary.StdTPR, r.Summary.MeanGTOverPAI)
	}
	mn, mx := stats.MinMax(l.Fig8().HoursAtPaperScale)
	fmt.Fprintf(&b, "fig8 min_hours=%.6f max_hours=%.6f\n", mn, mx)
	f9 := l.Fig9()
	fmt.Fprintf(&b, "fig9 ases=%d pearson=%.6f\n", len(f9.Rows), f9.FootprintCorrelation)
	for i, row := range f9.Rows[:4] {
		fmt.Fprintf(&b, "fig9 top%d as=%s mean_replicas=%.6f\n", i+1, asLabel(row.Stat.AS.Name), row.Stat.MeanReplicas)
	}
	b.WriteString("fig11")
	for _, cs := range l.Fig11().Breakdown {
		fmt.Fprintf(&b, " %s=%.6f", cs.Category, cs.Share)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "fig12 gain=%.6f median=%.1f max=%d\n", f12.CombinationGain, f12.MedianReplicas, f12.MaxReplicas)
	f13 := l.Fig13()
	fmt.Fprintf(&b, "fig13 singleton_share=%.6f", f13.SingletonShare)
	for _, name := range sortedKeys(f13.Named) {
		fmt.Fprintf(&b, " %s=%d", asLabel(name), f13.Named[name])
	}
	b.WriteString("\n")
	f14 := l.Fig14()
	s := f14.Summary
	fmt.Fprintf(&b, "fig14 ips=%d ases=%d ports=%d ssl=%d well_known=%d software=%d\n",
		s.RespondingIPs, s.ASes, s.UnionPorts, s.UnionSSL, s.UnionWellKnown, s.Software)
	b.WriteString("fig14 top_by_as")
	for _, pc := range f14.TopByAS {
		fmt.Fprintf(&b, " %d=%d", pc.Port, pc.Count)
	}
	b.WriteString("\n")
	f15 := l.Fig15()
	fmt.Fprintf(&b, "fig15 at_least_one=%.6f at_least_five=%.6f", f15.AtLeastOne, f15.AtLeastFive)
	for _, name := range sortedKeys(f15.Named) {
		fmt.Fprintf(&b, " %s=%d", asLabel(name), f15.Named[name])
	}
	b.WriteString("\n")
	f16 := l.Fig16()
	fmt.Fprintf(&b, "fig16 implementations=%d spearman=%.6f\n", len(f16.Breakdown), f16.UnicastRankSpearman)
	for _, sc := range f16.Breakdown {
		fmt.Fprintf(&b, "fig16 %s ases=%d\n", strings.ReplaceAll(sc.Software, " ", "_"), sc.ASes)
	}
	cov := l.Coverage()
	fmt.Fprintf(&b, "coverage routed=%d covered=%d anycast_slash24=%.6f\n", cov.Routed24s, cov.Covered24s, cov.AnycastSlash24)
	od := l.OpenDNS()
	fmt.Fprintf(&b, "opendns sites=%d correct=%d located=%d", od.TrueSites, od.CorrectCities, od.TotalLocated)
	for _, p := range sortedKeys(od.InstancesByProtocol) {
		fmt.Fprintf(&b, " %s=%d", p, od.InstancesByProtocol[p])
	}
	b.WriteString("\n")
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestExperimentsDoc holds EXPERIMENTS.md to science.golden: it renders
// every measured cell the doc states from the golden and fails when the
// doc does not contain it, whitespace runs counted as one space. This
// list is the only place the cells are named. It reads no lab, so it
// runs in -short mode too.
func TestExperimentsDoc(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	test, def := goldenBlocks(t)

	scale := 10_616_435.0 / def.float("fig4", "hitlist")
	perCensus := def.ints("fig12", "per_census")
	icmpMin, dnsMax := 1.0, 0.0
	for _, d := range []string{"OPENDNS", "EDGECAST", "CLOUDFLARENET", "MICROSOFT"} {
		icmpMin = min(icmpMin, def.float("fig6 "+d, "ICMP"))
	}
	for _, d := range []string{"EDGECAST", "MICROSOFT"} {
		dnsMax = max(dnsMax, def.float("fig6 "+d, "DNS/UDP"), def.float("fig6 "+d, "DNS/TCP"))
	}
	opendns := def.int("opendns", "ICMP")
	for _, p := range []string{"TCP-53", "TCP-80", "DNS/UDP", "DNS/TCP"} {
		if n := def.int("opendns", p); n != opendns {
			t.Errorf("OpenDNS: %s enumerates %d instances, ICMP %d; the doc says every protocol sees the same", p, n, opendns)
		}
	}
	if n := test.int("ablate-rate rate=1000", "dropped"); n != 0 {
		t.Errorf("ablate-rate: %d replies lost at 1k probes/s; the doc says none", n)
	}
	pct := func(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }
	share := func(line, of, total string) string {
		return pct(test.float(line, of) / test.float(line, total))
	}
	gain := func(from, to float64) string { return pct((to - from) / from) }

	cells := []string{
		fmt.Sprintf("1:%.0f scale of the paper's 10.6M routed /24s", scale),
		// Table 1.
		fmt.Sprintf("| census size, binary | 6 GB | %.1f GB |", def.float("table1", "est_binary_bytes")/1e9),
		fmt.Sprintf("| census size, textual | 79 GB | %.1f GB |", def.float("table1", "est_text_bytes")/1e9),
		fmt.Sprintf("| size ratio | ~13x | %.1fx |", def.float("table1", "text_bytes")/def.float("table1", "binary_bytes")),
		fmt.Sprintf("Our binary record is %.0f B/sample", def.float("table1", "binary_bytes")/def.float("table1", "samples")),
		// Fig. 4.
		fmt.Sprintf("## Fig. 4 — census magnitude funnel (scale 1:%.0f)", scale),
		fmt.Sprintf("| hitlist /24s | 10,616,435 | %s (exact by construction) |", comma(int(math.Round(def.float("fig4", "hitlist")*scale)))),
		fmt.Sprintf("| pruned per-VP targets | 6.6 M | %.2f M |", def.float("fig4", "pruned")*scale/1e6),
		fmt.Sprintf("| responsive targets | 4.4 M | %.2f M |", def.float("fig4", "echo")*scale/1e6),
		fmt.Sprintf("| greylist hosts | ~150 k | %.0f k |", def.float("fig4", "greylist")*scale/1e3),
		fmt.Sprintf("| anycast /24s (unscaled) | 1,696 | %s |", comma(def.int("fig4", "anycast"))),
		// Fig. 5.
		fmt.Sprintf("| PlanetLab replicas | 21 | %d |", def.int("fig5", "pl")),
		fmt.Sprintf("| RIPE replicas | 54 | %d (of %d instantiated sites) |", def.int("fig5", "ripe"), def.int("fig5", "truth")),
		fmt.Sprintf("| PL ⊆ RIPE | yes | %s of PL cities confirmed by RIPE;", pct(def.float("fig5", "pl_in_ripe"))),
		// Fig. 6.
		fmt.Sprintf("ICMP ≥%s everywhere", pct(icmpMin)),
		fmt.Sprintf("%s at EdgeCast and Microsoft", pct(dnsMax)),
		// Fig. 7.
		fmt.Sprintf("| CloudFlare TPR | 77%% | %s ± %.0f over %d /24s |",
			pct(def.float("fig7 CLOUDFLARENET", "tpr")), 100*def.float("fig7 CLOUDFLARENET", "tpr_sd"), def.int("fig7 CLOUDFLARENET", "prefixes")),
		fmt.Sprintf("| CloudFlare median error | 434 km | %.0f km |", def.float("fig7 CLOUDFLARENET", "median_err_km")),
		fmt.Sprintf("| EdgeCast TPR | 65%% | %s ± %.0f over %d /24s |",
			pct(def.float("fig7 EDGECAST", "tpr")), 100*def.float("fig7 EDGECAST", "tpr_sd"), def.int("fig7 EDGECAST", "prefixes")),
		fmt.Sprintf("| EdgeCast median error | 287 km | %.0f km |", def.float("fig7 EDGECAST", "median_err_km")),
		fmt.Sprintf("| GT/PAI | high (CF), lower (EC) | %.2f / %.2f |", def.float("fig7 CLOUDFLARENET", "gt_pai"), def.float("fig7 EDGECAST", "gt_pai")),
		// Fig. 8.
		fmt.Sprintf("| within 2 h | ~40%% | %s |", pct(def.float("fig8", "within2h"))),
		fmt.Sprintf("| within 5 h | ~95%% | %s |", pct(def.float("fig8", "within5h"))),
		fmt.Sprintf("| range | 1–16 h | %.1f–%.1f h |", def.float("fig8", "min_hours"), def.float("fig8", "max_hours")),
		// Fig. 9.
		fmt.Sprintf("%d ASes pass the ≥5-replica cut (paper: 100)", def.int("fig9", "ases")),
		fmt.Sprintf("%s (%.1f) / %s (%.1f) / %s (%.1f) / %s (%.1f) mean replicas per /24",
			displayName(t, def.field("fig9 top1", "as")), def.float("fig9 top1", "mean_replicas"),
			displayName(t, def.field("fig9 top2", "as")), def.float("fig9 top2", "mean_replicas"),
			displayName(t, def.field("fig9 top3", "as")), def.float("fig9 top3", "mean_replicas"),
			displayName(t, def.field("fig9 top4", "as")), def.float("fig9 top4", "mean_replicas")),
		fmt.Sprintf("Pearson %.2f (paper 0.35)", def.float("fig9", "pearson")),
		// Fig. 10.
		glanceCell(def, "All", "all", "1696 · 346 · 77 · 38 · 13,802"),
		glanceCell(def, "≥5 replicas", "min5", "897 · 100 · 71 · 36 · 11,598"),
		glanceCell(def, "∩ CAIDA-100", "caida100", "19 · 8 · 30 · 18 · 138"),
		glanceCell(def, "∩ Alexa-100k", "alexa100k", "242 · 15 · 45 · 29 · 4,038"),
		// Fig. 12.
		fmt.Sprintf("Individual censuses detect %s–%s anycast /24s; the combination detects %s, a gain of +%.0f over the average census",
			comma(slices.Min(perCensus)), comma(slices.Max(perCensus)), comma(def.int("fig12", "combined")), def.float("fig12", "gain")),
		fmt.Sprintf("Median %.0f replicas per /24, maximum %d.", def.float("fig12", "median"), def.int("fig12", "max")),
		// Fig. 13.
		fmt.Sprintf("CloudFlare %d, Google %d, EdgeCast %d, Prolexic %d, Apple %d, Twitter %d, Level3 %d, LinkedIn %d.",
			def.int("fig13", "CLOUDFLARENET"), def.int("fig13", "GOOGLE"), def.int("fig13", "EDGECAST"), def.int("fig13", "PROLEXIC"),
			def.int("fig13", "APPLE-ENGINEERING"), def.int("fig13", "TWITTER-NETWORK"), def.int("fig13", "LEVEL3"), def.int("fig13", "LINKEDIN")),
		fmt.Sprintf("%s of detected ASes have exactly one /24", pct(def.float("fig13", "singleton_share"))),
		// Fig. 14.
		fmt.Sprintf("| responding IPs/32 | 812 | %d |", def.int("fig14", "ips")),
		fmt.Sprintf("| ASes with ≥1 open port | 81 | %d |", def.int("fig14", "ases")),
		fmt.Sprintf("| distinct open ports | 10,499 | %s |", comma(def.int("fig14", "ports"))),
		fmt.Sprintf("| SSL services | 185 | %d |", def.int("fig14", "ssl")),
		fmt.Sprintf("| well-known | 457 | %d |", def.int("fig14", "well_known")),
		fmt.Sprintf("| fingerprinted software | 30 | %d |", def.int("fig14", "software")),
		fmt.Sprintf("Top ports by AS: %s (paper:", strings.Join(def.keys("fig14 top_by_as"), ", ")),
		// Fig. 15.
		fmt.Sprintf("OVH %s (paper 10,148), Incapsula %d (313), CloudFlare %d (22), Google %d (9), EdgeCast %d (5).",
			comma(def.int("fig15", "OVH")), def.int("fig15", "INCAPSULA"), def.int("fig15", "CLOUDFLARENET"), def.int("fig15", "GOOGLE"), def.int("fig15", "EDGECAST")),
		fmt.Sprintf("%s of scanned ASes expose ≥1 TCP port (paper 81/100); %s expose ≥5",
			pct(def.float("fig15", "at_least_one")), pct(def.float("fig15", "at_least_five"))),
		// Fig. 16.
		fmt.Sprintf("All %d implementations appear.", def.int("fig16", "implementations")),
		fmt.Sprintf("ISC BIND dominates DNS (%d ASes; NSD on exactly the %d hardened", def.int("fig16 ISC_BIND", "ases"), def.int("fig16 NLnet_Labs_NSD", "ases")),
		fmt.Sprintf("nginx leads the web servers (%d ASes) ahead of Apache (%d) and lighttpd (%d)",
			def.int("fig16 nginx", "ases"), def.int("fig16 Apache_httpd", "ases"), def.int("fig16 lighttpd", "ases")),
		fmt.Sprintf("Spearman %.2f (paper 0.38", def.float("fig16", "spearman")),
		// Sec. 3.1 and 3.4.
		fmt.Sprintf("at %s prefixes the 0.01%% gap is ~2 prefixes and this seed happens to draw %d",
			comma(def.int("coverage", "routed")), def.int("coverage", "routed")-def.int("coverage", "covered")),
		fmt.Sprintf("%s of anycast announcements are exactly /24", pct(def.float("coverage", "anycast_slash24"))),
		fmt.Sprintf("%d instances each of the %d published sites", opendns, def.int("opendns", "sites")),
		fmt.Sprintf("%d/%d cities exactly correct", def.int("opendns", "correct"), def.int("opendns", "located")),
		// Known deviations.
		fmt.Sprintf("(%s of 1,696)", comma(def.int("fig4", "anycast"))),
		fmt.Sprintf("OpenDNS %d/%d vs paper 15–17", opendns, def.int("opendns", "sites")),
		// Ablations and extensions: the test lab.
		fmt.Sprintf("%d VPs detect %s of the anycast /24s, %d VPs %s, %d VPs %s; enumeration recall grows the same way (%s, %s and %s replicas)",
			test.int("ablate-vps vps=40", "vps"), share("ablate-vps vps=40", "detected", "truth"),
			test.int("ablate-vps vps=120", "vps"), share("ablate-vps vps=120", "detected", "truth"),
			test.int("ablate-vps vps=250", "vps"), share("ablate-vps vps=250", "detected", "truth"),
			comma(test.int("ablate-vps vps=40", "replicas")), comma(test.int("ablate-vps vps=120", "replicas")), comma(test.int("ablate-vps vps=250", "replicas"))),
		fmt.Sprintf("at 12k probes/s %s replies are lost and the per-probe echo fraction drops from %.3f to %.3f",
			comma(test.int("ablate-rate rate=12000", "dropped")), test.float("ablate-rate rate=1000", "echo_fraction"), test.float("ablate-rate rate=12000", "echo_fraction")),
		fmt.Sprintf("the iteration adds %s enumeration recall over a single MIS pass across all %s detected /24s (%s → %s replicas)",
			gain(test.float("ablate-iter", "single"), test.float("ablate-iter", "iterated")), comma(test.int("ablate-iter", "prefixes")),
			comma(test.int("ablate-iter", "single")), comma(test.int("ablate-iter", "iterated"))),
		fmt.Sprintf("on %d real 16-disk instances the greedy 5-approximation matches the optimum on %d.",
			test.int("ablate-mis", "instances"), test.int("ablate-mis", "greedy_optimal")),
		fmt.Sprintf("out-counts iGreedy on DNS deployments (%d vs %d instances, truth %d, on %d deployments) and is stone blind on every non-DNS one (%d answers on %d)",
			test.int("baselines", "chaos"), test.int("baselines", "igreedy"), test.int("baselines", "truth"), test.int("baselines", "dns"),
			test.int("baselines", "chaos_non_dns"), test.int("baselines", "non_dns")),
		fmt.Sprintf("matches %d of %d replicas; CBG multilateration is feasible on %d of %d unicast targets and %d of %d anycast ones",
			test.int("baselines", "db_matches"), test.int("baselines", "db_replicas"), test.int("baselines", "cbg_unicast"),
			test.int("baselines", "unicast"), test.int("baselines", "cbg_anycast"), test.int("baselines", "anycast")),
		fmt.Sprintf("detects more /24s than one PlanetLab census (%s vs %s:", comma(test.int("ripe", "ripe")), comma(test.int("ripe", "pl_single"))),
		fmt.Sprintf("refining the %d largest PlanetLab detections with RIPE measurements adds %s more replicas (%d → %d)",
			test.int("fusion", "prefixes"), gain(test.float("fusion", "pl_replicas"), test.float("fusion", "refined_replicas")),
			test.int("fusion", "pl_replicas"), test.int("fusion", "refined_replicas")),
		fmt.Sprintf("%d, %d and %d over 3 rounds from 60 VPs on the 6,000-/24 test lab",
			test.int("longcampaign round=60", "detected"), test.int("longcampaign round=61", "detected"), test.int("longcampaign round=62", "detected")),
	}
	for _, cell := range cells {
		if cell = strings.Join(strings.Fields(cell), " "); !strings.Contains(doc, cell) {
			t.Errorf("EXPERIMENTS.md does not say %q, what science.golden reads", cell)
		}
	}
}

// glanceCell renders one Fig. 10 row: the paper's five values, then the
// measured ones.
func glanceCell(def goldenBlock, row, line, paper string) string {
	g := "fig10 " + line
	return fmt.Sprintf("| %s | %s | %d · %d · %d · %d · %s |", row, paper,
		def.int(g, "ip24s"), def.int(g, "ases"), def.int(g, "cities"), def.int(g, "cc"), comma(def.int(g, "replicas")))
}

// displayName is the name EXPERIMENTS.md gives an AS label of the golden.
func displayName(t *testing.T, label string) string {
	t.Helper()
	name, ok := map[string]string{"OPENDNS": "OpenDNS", "CLOUDFLARENET": "CloudFlare", "MICROSOFT": "Microsoft", "ISC-AS": "ISC"}[label]
	if !ok {
		t.Errorf("fig9: no display name for %s", label)
	}
	return name
}

// comma renders n with thousands separators, as the doc does.
func comma(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// goldenBlock is one lab's lines of science.golden. A line is a key of
// words, then name=value fields; a lookup names the key by a prefix of
// its line and reads the field from the first such line that has it.
type goldenBlock struct {
	t     *testing.T
	lines []string
}

// goldenBlocks splits science.golden into the test lab's block and the
// default lab's.
func goldenBlocks(t *testing.T) (test, def goldenBlock) {
	raw, err := os.ReadFile(sciencePath)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []goldenBlock
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			blocks = append(blocks, goldenBlock{t: t})
			continue
		}
		if len(blocks) == 0 {
			t.Fatalf("%s: %q before the first block's header", sciencePath, line)
		}
		blocks[len(blocks)-1].lines = append(blocks[len(blocks)-1].lines, line)
	}
	if len(blocks) != 2 {
		t.Fatalf("%s has %d blocks, want the test lab's and the default lab's", sciencePath, len(blocks))
	}
	return blocks[0], blocks[1]
}

func (b goldenBlock) field(key, name string) string {
	b.t.Helper()
	for _, line := range b.lines {
		if line != key && !strings.HasPrefix(line, key+" ") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, name+"="); ok {
				return v
			}
		}
	}
	b.t.Fatalf("science.golden has no %s field on a %q line", name, key)
	return ""
}

func (b goldenBlock) float(key, name string) float64 {
	b.t.Helper()
	v, err := strconv.ParseFloat(b.field(key, name), 64)
	if err != nil {
		b.t.Fatal(err)
	}
	return v
}

func (b goldenBlock) int(key, name string) int {
	b.t.Helper()
	v, err := strconv.Atoi(b.field(key, name))
	if err != nil {
		b.t.Fatal(err)
	}
	return v
}

// ints reads a name=[a b c] list field, the one kind of field that
// holds spaces.
func (b goldenBlock) ints(key, name string) []int {
	b.t.Helper()
	for _, line := range b.lines {
		if !strings.HasPrefix(line, key+" ") {
			continue
		}
		_, list, ok := strings.Cut(line, " "+name+"=[")
		if list, _, closed := strings.Cut(list, "]"); ok && closed {
			var out []int
			for _, f := range strings.Fields(list) {
				v, err := strconv.Atoi(f)
				if err != nil {
					b.t.Fatal(err)
				}
				out = append(out, v)
			}
			return out
		}
	}
	b.t.Fatalf("science.golden has no %s=[...] field on a %q line", name, key)
	return nil
}

// keys lists the field names of the first line with the key, in order.
func (b goldenBlock) keys(key string) []string {
	b.t.Helper()
	for _, line := range b.lines {
		if rest, ok := strings.CutPrefix(line, key+" "); ok {
			var names []string
			for _, f := range strings.Fields(rest) {
				name, _, _ := strings.Cut(f, "=")
				names = append(names, name)
			}
			return names
		}
	}
	b.t.Fatalf("science.golden has no %q line", key)
	return nil
}
