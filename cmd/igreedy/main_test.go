package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

// mainArgsEnv, when set, makes the test binary the igreedy command
// itself, run with these space-separated arguments: how a test sees the
// command's exit status and log.
const mainArgsEnv = "IGREEDY_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"igreedy"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("igreedy", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A round count that probes nothing is refused before the demo world is
// built: exit 1 and a first log line naming -rounds, where it used to
// build a 2,000-/24 world, probe nothing and fail for want of two
// measurements.
func TestRefusesRounds(t *testing.T) {
	for _, bad := range []string{"-rounds 0", "-rounds -2"} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"=-demo CLOUDFLARENET,US "+bad)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("igreedy %s: %v, want exit status 1; log:\n%s", bad, err, stderr.String())
			continue
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); !strings.HasPrefix(first, "rounds: ") {
			t.Errorf("igreedy %s: refused without naming the flag: %q", bad, first)
		}
		if strings.Contains(stderr.String(), "truth:") { // the demo's "probing P (AS, truth: N replicas)" line
			t.Errorf("igreedy %s: built its world before refusing:\n%s", bad, stderr.String())
		}
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		rtt  time.Duration // of the second measurement; 0 when err is set
		err  string        // substring of the error; "" means it parses
	}{
		{"valid", "a,48.85,2.35,1.5\nb,48.85,2.35,2.25\n", 2250 * time.Microsecond, ""},
		{"zero-rtt", "a,48.85,2.35,1\nb,48.85,2.35,0\n", 0, ""},
		{"comments-and-blanks", "# vp,lat,lon,rtt\n\na,48.85,2.35,1\n b , 48.85 , 2.35 , 3 \n", 3 * time.Millisecond, ""},
		{"negative-rtt", "a,48.85,2.35,1\nb,48.85,2.35,-100\n", 0, "line 2:"},
		{"nan-rtt", "a,48.85,2.35,1\nb,48.85,2.35,NaN\n", 0, "line 2:"},
		{"inf-rtt", "a,48.85,2.35,1\nb,48.85,2.35,+Inf\n", 0, "line 2:"},
		{"huge-rtt", "a,48.85,2.35,1\nb,48.85,2.35,1e300\n", 0, "line 2:"},
		{"past-duration-range", "a,48.85,2.35,1\nb,48.85,2.35,9223372036855\n", 0, "line 2:"},
		{"bad-number", "a,48.85,2.35,fast\n", 0, "line 1: bad number"},
		{"bad-latitude", "a,91,2.35,1\n", 0, "line 1:"},
		{"wrong-arity", "a,48.85,2.35\n", 0, "line 1: want vantage,lat,lon,rtt_ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := parse(strings.NewReader(tc.in))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parse = %v, %v; want error containing %q", ms, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 2 || ms[1].RTT != tc.rtt {
				t.Fatalf("parse = %+v, want 2 measurements, the second at %v", ms, tc.rtt)
			}
			if ms[1].VP != "b" {
				t.Errorf("vantage name %q, want %q (trimmed)", ms[1].VP, "b")
			}
		})
	}
}

// writeRecords writes samples as a binary record file named name in dir.
func writeRecords(t *testing.T, dir, name string, samples ...record.Sample) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	w := record.NewBinaryWriter(f)
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func echo(ip netsim.IP, us int) record.Sample {
	return record.Sample{Target: ip, Kind: netsim.ReplyEcho, RTT: time.Duration(us) * time.Microsecond}
}

func TestRunsMeasurements(t *testing.T) {
	vps := platform.PlanetLab(cities.Default()).VPs()
	const in, out netsim.IP = 0x01001707, 0x01001807 // 1.0.23.7 and 1.0.24.7
	dir := t.TempDir()
	// Directory order, not VP order, is measurement order.
	writeRecords(t, dir, "0-"+vps[9].Name+".rec", echo(out, 10), echo(in, 2500), echo(in, 1800), echo(0x010017fe, 2100))
	writeRecords(t, dir, "1-"+vps[3].Name+".rec", echo(in, 900),
		record.Sample{Target: in, Kind: netsim.ReplyAdminFiltered, RTT: 100 * time.Microsecond})
	writeRecords(t, dir, "2-"+vps[5].Name+".rec", echo(out, 700))
	writeRecords(t, dir, "3-"+vps[0].Name+".rec",
		record.Sample{Target: in, Kind: netsim.ReplyHostProhibited, RTT: time.Microsecond}, echo(in, 3000))

	got, err := runsMeasurements(dir, "1.0.23.0/24")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Measurement{
		{VP: vps[9].Name, VPLoc: vps[9].Loc, RTT: 1800 * time.Microsecond},
		{VP: vps[3].Name, VPLoc: vps[3].Loc, RTT: 900 * time.Microsecond}, // not the greylisted 100 µs
		{VP: vps[0].Name, VPLoc: vps[0].Loc, RTT: 3000 * time.Microsecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("runsMeasurements = %+v\nwant %+v", got, want)
	}
}

func TestRunsMeasurementsErrors(t *testing.T) {
	vp := platform.PlanetLab(cities.Default()).VPs()[0]
	const ip netsim.IP = 0x01001707
	for _, tc := range []struct {
		name   string
		setup  func(dir string) error
		prefix string
		err    string // substring of the error
	}{
		{"unknown-vp", func(dir string) error {
			writeRecords(t, dir, "0-nosuchhost.example.rec", echo(ip, 100))
			return nil
		}, "1.0.23.0/24", "0-nosuchhost.example.rec"},
		{"truncated", func(dir string) error {
			writeRecords(t, dir, "0-"+vp.Name+".rec", echo(ip, 100), echo(ip, 200))
			path := filepath.Join(dir, "0-"+vp.Name+".rec")
			return os.Truncate(path, 20)
		}, "1.0.23.0/24", "0-" + vp.Name + ".rec: record: truncated"},
		{"empty-dir", func(string) error { return nil }, "1.0.23.0/24", "1.0.23.0/24 in the 0 record files"},
		{"no-samples", func(dir string) error {
			writeRecords(t, dir, "0-"+vp.Name+".rec", echo(ip, 100),
				record.Sample{Target: 0x01002a01, Kind: netsim.ReplyNetProhibited})
			return nil
		}, "1.0.42.0/24", "1.0.42.0/24"},
		{"no-prefix", func(string) error { return nil }, "", "-prefix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.setup(dir); err != nil {
				t.Fatal(err)
			}
			ms, err := runsMeasurements(dir, tc.prefix)
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("runsMeasurements = %v, %v; want an error containing %q", ms, err, tc.err)
			}
		})
	}
}
