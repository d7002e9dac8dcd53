// Command igreedy runs the paper's detection / enumeration / geolocation
// technique over a set of latency measurements toward one target.
//
// Input is CSV on stdin or from -in FILE, one measurement per line:
//
//	vantage-name,lat,lon,rtt_ms
//
// With -demo NAME (an AS name from the registry, e.g. "CLOUDFLARENET,US")
// it instead generates the measurements by probing that AS's first anycast
// /24 in the synthetic Internet from every PlanetLab vantage point.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

func main() {
	in := flag.String("in", "", "measurement CSV file (default stdin)")
	demo := flag.String("demo", "", "generate measurements for this AS from the synthetic Internet")
	rounds := flag.Int("rounds", 4, "probing rounds for -demo (minimum RTT is kept)")
	runsDir := flag.String("runs", "", "directory of saved census runs (see cmd/census -save)")
	prefix := flag.String("prefix", "", "target /24 to analyze from -runs, e.g. 1.23.45.0/24")
	flag.Parse()
	log.SetFlags(0)

	var ms []core.Measurement
	var err error
	switch {
	case *runsDir != "":
		ms, err = runsMeasurements(*runsDir, *prefix)
	case *demo != "":
		ms, err = demoMeasurements(*demo, *rounds)
	case *in != "":
		var f *os.File
		if f, err = os.Open(*in); err == nil {
			defer f.Close()
			ms, err = parse(f)
		}
	default:
		ms, err = parse(os.Stdin)
	}
	if err != nil {
		log.Fatal(err)
	}
	if len(ms) < 2 {
		log.Fatal("igreedy: need at least two measurements")
	}

	res := core.Analyze(cities.Default(), ms, core.Options{})
	if !res.Anycast {
		fmt.Printf("unicast: no speed-of-light violation across %d vantage points\n", len(ms))
		return
	}
	fmt.Printf("ANYCAST: at least %d replicas (from %d measurements, %d iterations)\n",
		res.Count(), len(ms), res.Iterations)
	for _, r := range res.Replicas {
		if r.Located {
			fmt.Printf("  %-28s via %s\n", r.City.String(), r.VP)
		} else {
			fmt.Printf("  unlocated %-28v via %s\n", r.Disk, r.VP)
		}
	}
}

// parse reads the measurement CSV.
func parse(r io.Reader) ([]core.Measurement, error) {
	var ms []core.Measurement
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("line %d: want vantage,lat,lon,rtt_ms", line)
		}
		lat, err1 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		lon, err2 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		rtt, err3 := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad number", line)
		}
		loc, err := geo.NewCoord(lat, lon)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		// A negative, NaN or infinite RTT, or one past time.Duration's
		// range, would become a disk of negative or garbage radius.
		ns := rtt * float64(time.Millisecond)
		if !(ns >= 0 && ns < math.MaxInt64) {
			return nil, fmt.Errorf("line %d: rtt_ms %v out of range", line, rtt)
		}
		ms = append(ms, core.Measurement{
			VP:    strings.TrimSpace(parts[0]),
			VPLoc: loc,
			RTT:   time.Duration(ns),
		})
	}
	return ms, sc.Err()
}

// demoMeasurements probes an AS's first deployment from PlanetLab.
func demoMeasurements(asName string, rounds int) ([]core.Measurement, error) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 2000
	world := netsim.New(cfg)
	as, ok := world.Registry.ByName(asName)
	if !ok {
		return nil, fmt.Errorf("unknown AS %q (try e.g. CLOUDFLARENET,US)", asName)
	}
	d := world.DeploymentsByASN(as.ASN)[0]
	target, _ := world.Representative(d.Prefix)
	log.Printf("probing %v (%s, truth: %d replicas) from PlanetLab", d.Prefix, asName, len(d.Replicas))

	var ms []core.Measurement
	for _, vp := range platform.PlanetLab(cities.Default()).VPs() {
		best := time.Duration(-1)
		for r := 1; r <= rounds; r++ {
			reply := world.ProbeICMP(vp, target, uint64(r))
			if reply.OK() && (best < 0 || reply.RTT < best) {
				best = reply.RTT
			}
		}
		if best >= 0 {
			ms = append(ms, core.Measurement{VP: vp.Name, VPLoc: vp.Loc, RTT: best})
		}
	}
	return ms, nil
}

// runsMeasurements loads saved census runs, combines them by minimum RTT,
// and extracts the measurement set of the requested prefix.
func runsMeasurements(dir, prefixStr string) ([]core.Measurement, error) {
	if prefixStr == "" {
		return nil, fmt.Errorf("igreedy: -runs requires -prefix")
	}
	p, err := netsim.ParsePrefix24(prefixStr)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []*census.Run
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".run") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		run, err := census.LoadRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("igreedy: %s: %w", e.Name(), err)
		}
		runs = append(runs, run)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("igreedy: no .run files in %s", dir)
	}
	combined, err := census.Combine(runs...)
	if err != nil {
		return nil, err
	}
	for ti, ip := range combined.Targets {
		if ip.Prefix() == p {
			log.Printf("loaded %d runs, %d combined VPs; analyzing %v", len(runs), len(combined.VPs), p)
			return combined.Measurements(ti), nil
		}
	}
	return nil, fmt.Errorf("igreedy: prefix %v not in the saved target list", p)
}
