// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints the measured values next to the numbers the
// paper reports.
//
// Usage:
//
//	experiments [-unicast24s N] [-censuses N] [-seed S] [-exp LIST] [-csv DIR]
//
// -exp selects a comma-separated subset of experiments, e.g.
// "fig4,fig10,table1"; the default runs everything. -cpuprofile and
// -memprofile write pprof profiles of the whole run. Performance is not
// measured here: the repository benchmark is bench/ (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"anycastmap/internal/experiments"
)

func main() {
	unicast := flag.Int("unicast24s", 20000, "unicast /24 background size (paper: 10.6M routed /24s)")
	censuses := flag.Int("censuses", 4, "number of census rounds")
	seed := flag.Uint64("seed", 2015, "world seed")
	csvDir := flag.String("csv", "", "export the figure data series as CSV files to this directory")
	expList := flag.String("exp", "all", "comma-separated experiments: table1,fig4..fig16,coverage,opendns,ablate-vps,ablate-rate,ablate-iter,ablate-mis,fusion,longitudinal,longitudinal-campaign,baselines,ripe")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.DefaultLabConfig()
	cfg.Unicast24s = *unicast
	cfg.Censuses = *censuses
	cfg.Seed = *seed

	fmt.Printf("building lab: %d unicast /24s, %d censuses, seed %d ...\n", cfg.Unicast24s, cfg.Censuses, cfg.Seed)
	start := time.Now()
	lab := experiments.NewLab(cfg)
	fmt.Printf("lab ready in %v: %d targets, %d anycast /24s detected of %d true\n\n",
		time.Since(start).Round(time.Millisecond), lab.Hitlist.Len(), len(lab.Findings), len(lab.World.Deployments()))

	want := map[string]bool{}
	all := *expList == "all"
	for _, e := range strings.Split(*expList, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	sel := func(name string) bool { return all || want[name] }

	type experiment struct {
		name string
		run  func() string
	}
	exps := []experiment{
		{"table1", func() string { return lab.Table1().Report() }},
		{"fig4", func() string { return lab.Fig4().Report() }},
		{"fig5", func() string { return lab.Fig5().Report() }},
		{"fig6", func() string { return lab.Fig6().Report() }},
		{"fig7", func() string { return experiments.ReportFig7(lab.Fig7()) }},
		{"fig8", func() string { return lab.Fig8().Report() }},
		{"fig9", func() string { return lab.Fig9().Report() }},
		{"fig10", func() string { return lab.Fig10().Report() }},
		{"fig11", func() string { return lab.Fig11().Report() }},
		{"fig12", func() string { return lab.Fig12().Report() }},
		{"fig13", func() string { return lab.Fig13().Report() }},
		{"fig14", func() string { return lab.Fig14().Report() }},
		{"fig15", func() string { return lab.Fig15().Report() }},
		{"fig16", func() string { return lab.Fig16().Report() }},
		{"coverage", func() string { return lab.Coverage().Report() }},
		{"opendns", func() string { return lab.OpenDNS().Report() }},
		{"ablate-vps", func() string { return lab.AblateVPCount([]int{30, 60, 120, 200, 300}).Report() }},
		{"ablate-rate", func() string { return lab.AblateRate([]float64{1000, 3000, 6000, 12000}).Report() }},
		{"ablate-iter", func() string { return lab.AblateIteration().Report() }},
		{"ablate-mis", func() string { return lab.AblateMIS(50).Report() }},
		{"fusion", func() string { return lab.FusePlatforms(25).Report() }},
		{"longitudinal", func() string { return lab.Longitudinal(4, 261).Report() }},
		{"longitudinal-campaign", func() string { return lab.LongitudinalCampaign(4, 200).Report() }},
		{"baselines", func() string { return lab.Baselines(60).Report() }},
		{"ripe", func() string { return lab.RIPECensus().Report() }},
	}

	ran := 0
	for _, e := range exps {
		if !sel(e.name) {
			continue
		}
		t0 := time.Now()
		report := e.run()
		fmt.Print(report)
		fmt.Printf("  [%s in %v]\n\n", e.name, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched -exp=%s\n", *expList)
		os.Exit(2)
	}
	if *csvDir != "" {
		files, err := lab.ExportCSV(*csvDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d CSV series to %s\n", len(files), *csvDir)
	}
}
