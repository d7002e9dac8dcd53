package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"anycastmap/internal/analysis"
)

var updateScience = flag.Bool("update", false, "rewrite testdata/science.golden from this checkout's lab")

// TestScienceGolden pins the reproduction's headline numbers exactly, at
// the default seed, on the shared test lab: the Fig. 4 funnel, all four
// Fig. 10 rows, Fig. 7's TPR and median error per AS, the Fig. 8
// completion fractions, Fig. 12's per-census and combined counts, the
// RIPE what-if and both longitudinal extensions. The between(...)
// checks in the figure tests say the numbers still look like the paper;
// this one says they did not move, so a refactor that drifts the science
// fails with a diff instead of sliding inside a tolerance. A change that
// means to move them regenerates the file with
//
//	go test -run TestScienceGolden ./internal/experiments -update
//
// and says so; any other change must leave it alone.
func TestScienceGolden(t *testing.T) {
	const path = "testdata/science.golden"
	got := scienceLines(getLab(t))
	if *updateScience {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
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

// scienceLines renders the pinned numbers, one figure row per line.
// Floats carry a fixed precision, well above the paper's own.
func scienceLines(l *Lab) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# lab seed %d, %d unicast /24s; regenerate with go test -run TestScienceGolden ./internal/experiments -update\n",
		l.Config.Seed, l.Config.Unicast24s)
	f4 := l.Fig4()
	fmt.Fprintf(&b, "fig4 hitlist=%d pruned=%d echo=%d greylist=%d valid=%d anycast=%d\n",
		f4.FullHitlist, f4.PrunedTargets, f4.EchoTargets, f4.GreylistHosts, f4.ValidTargets, f4.AnycastPrefixes)
	f10 := l.Fig10()
	for _, row := range []struct {
		name string
		g    analysis.Glance
	}{{"all", f10.All}, {"min5", f10.Min5}, {"caida100", f10.CAIDA100}, {"alexa100k", f10.Alexa100k}} {
		fmt.Fprintf(&b, "fig10 %s ip24s=%d ases=%d cities=%d cc=%d replicas=%d\n",
			row.name, row.g.IP24s, row.g.ASes, row.g.Cities, row.g.CC, row.g.Replicas)
	}
	for _, r := range l.Fig7() {
		fmt.Fprintf(&b, "fig7 %s tpr=%.6f median_err_km=%.3f prefixes=%d\n",
			strings.Split(r.AS, ",")[0], r.Summary.MeanTPR, r.Summary.MedianErrKm, r.Summary.Prefixes)
	}
	f8 := l.Fig8()
	fmt.Fprintf(&b, "fig8 vp_runs=%d within2h=%.6f within5h=%.6f\n",
		len(f8.HoursAtPaperScale), f8.Within2h, f8.Within5h)
	f12 := labFig12()
	fmt.Fprintf(&b, "fig12 per_census=%v combined=%d\n", f12.PerCensusCounts, f12.CombinedCount)
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
	return b.String()
}
