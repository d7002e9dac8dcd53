package census

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/obs"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// scrape renders r in the text exposition and parses it into
// full-series-name (labels included) -> value.
func scrape(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp < 0 || err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		out[line[:sp]] = v
	}
	return out
}

// The census half of the /metrics surface `census -metrics` serves: after
// a campaign round and its analysis, the campaign series count the round
// and the analyses, and the prober series are the package counters, with
// one span plan shared by every vantage point of the round.
func TestCampaignMetricsExposition(t *testing.T) {
	w, h, _, _, _ := testbed(t)
	db := cities.Default()
	reg := obs.NewRegistry()
	prober.DefaultMetrics.Register(reg)
	runs0, plans0 := prober.DefaultMetrics.Runs.Load(), prober.DefaultMetrics.Plans.Load()

	cp := NewCampaign(CampaignConfig{Census: Config{Seed: 9}, Metrics: NewMetrics(reg)})
	vps := platform.PlanetLab(db).Sample(40, 3)
	_, rep, err := cp.Drive(context.Background(), Drive{Executor: cp.Local(w, h, nil, PipelineConfig{}),
		First: 1, Schedule: [][]platform.VP{vps}})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Analysis
	m := scrape(t, reg)

	if m["anycastmap_census_rounds_folded_total"] != 1 {
		t.Errorf("rounds folded = %v", m["anycastmap_census_rounds_folded_total"])
	}
	if m["anycastmap_census_analyze_seconds_count"] != 1 {
		t.Errorf("analyze count = %v", m["anycastmap_census_analyze_seconds_count"])
	}
	analyses := m["anycastmap_census_analyses_total"]
	if analyses == 0 || analyses != float64(st.Analyzed) {
		t.Errorf("analyses = %v, Drive says %d", analyses, st.Analyzed)
	}
	if w, s := m["anycastmap_census_witness_decided_total"], m["anycastmap_census_split_scanned_total"]; w+s != analyses {
		t.Errorf("witness-decided %v + split-scanned %v != analyses %v", w, s, analyses)
	}

	proberChecks := map[string]uint64{
		"anycastmap_probe_runs_total":         prober.DefaultMetrics.Runs.Load(),
		"anycastmap_probe_probes_sent_total":  prober.DefaultMetrics.ProbesSent.Load(),
		"anycastmap_probe_echo_replies_total": prober.DefaultMetrics.EchoReplies.Load(),
		"anycastmap_probe_plans_total":        prober.DefaultMetrics.Plans.Load(),
	}
	for name, want := range proberChecks {
		if got := m[name]; got != float64(want) {
			t.Errorf("%s = %v, prober counters say %d", name, got, want)
		}
	}
	// Every vantage point of the round reads the same span plan.
	runs := prober.DefaultMetrics.Runs.Load() - runs0
	plans := prober.DefaultMetrics.Plans.Load() - plans0
	if runs < uint64(len(vps)) || plans == 0 || plans >= runs {
		t.Errorf("%d span plans for %d probing runs of %d VPs", plans, runs, len(vps))
	}
}
