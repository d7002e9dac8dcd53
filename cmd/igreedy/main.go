// Command igreedy runs the paper's detection / enumeration / geolocation
// technique over a set of latency measurements toward one target.
//
// Input is CSV on stdin or from -in FILE, one measurement per line:
//
//	vantage-name,lat,lon,rtt_ms
//
// With -demo NAME (an AS name from the registry, e.g. "CLOUDFLARENET,US")
// it instead generates the measurements by probing that AS's first anycast
// /24 in the synthetic Internet from every PlanetLab vantage point. With
// -runs DIR -prefix P it reads them from the per-VP binary record files
// `census -save DIR` writes: each file's minimum echo RTT inside P, in
// directory order.
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

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
	"anycastmap/internal/record"
)

func main() {
	in := flag.String("in", "", "measurement CSV file (default stdin)")
	demo := flag.String("demo", "", "generate measurements for this AS from the synthetic Internet")
	rounds := flag.Int("rounds", 4, "probing rounds for -demo (minimum RTT is kept)")
	runsDir := flag.String("runs", "", "directory of per-VP binary record files (see cmd/census -save)")
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

	return prober.MinRTT(platform.PlanetLab(cities.Default()).VPs(), rounds, func(vp platform.VP, r uint64) netsim.Reply {
		return world.ProbeICMP(vp, target, r)
	}), nil
}

// runsMeasurements reads the per-VP binary record files in dir, in
// directory order, and keeps each file's minimum echo RTT toward the /24
// named by prefixStr. A file is named SLOT-VP.rec after its PlanetLab
// vantage point; greylist-kind samples carry no echo delay and are
// skipped, so a raw per-round file reads as well as a combined one.
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
	byName := make(map[string]platform.VP)
	for _, vp := range platform.PlanetLab(cities.Default()).VPs() {
		byName[vp.Name] = vp
	}
	var ms []core.Measurement
	for _, e := range entries {
		_, name, _ := strings.Cut(strings.TrimSuffix(e.Name(), ".rec"), "-")
		vp, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("igreedy: %s: no PlanetLab vantage point named %q", e.Name(), name)
		}
		best, err := minEchoRTT(filepath.Join(dir, e.Name()), p)
		if err != nil {
			return nil, fmt.Errorf("igreedy: %s: %w", e.Name(), err)
		}
		if best >= 0 {
			ms = append(ms, core.Measurement{VP: vp.Name, VPLoc: vp.Loc, RTT: best})
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("igreedy: no echo sample toward %v in the %d record files of %s", p, len(entries), dir)
	}
	log.Printf("read %d record files, %d with echoes from %v", len(entries), len(ms), p)
	return ms, nil
}

// minEchoRTT returns the minimum echo RTT toward p in the binary record
// file at path, or -1 when it has none.
func minEchoRTT(path string, p netsim.Prefix24) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	best := time.Duration(-1)
	r := record.NewBinaryReader(f)
	for {
		s, err := r.Read()
		if err == io.EOF {
			return best, nil
		}
		if err != nil {
			return 0, err
		}
		if s.Kind == netsim.ReplyEcho && s.Target.Prefix() == p && (best < 0 || s.RTT < best) {
			best = s.RTT
		}
	}
}
