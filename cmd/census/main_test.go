package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
	"anycastmap/internal/store"
)

// mainArgsEnv, when set, makes the test binary the census command itself,
// run with these space-separated arguments: how a test sees the command's
// exit status and log.
const mainArgsEnv = "CENSUS_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"census"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("census", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Every value a flag cannot mean is refused before the world is built:
// exit 1, a first log line naming the flag, no world: line and no -save
// directory.
func TestRefusesFlagValues(t *testing.T) {
	for _, bad := range []string{
		"-top -1", "-max-heap-mib -1", "-rate-baseline-targets -1",
		"-unicast24s -5", "-vps 0", "-censuses 0", "-censuses -1", "-retries 0", "-workers -3", "-span-targets -5",
		"-local -2", "-retry-backoff -1s", "-lease-ttl -1s -local 2", "-lease-ttl 0 -local 2",
	} {
		save := filepath.Join(t.TempDir(), "refused.save")
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"=-unicast24s 800 -vps 20 -censuses 1 -save "+save+" "+bad)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("census %s: %v, want exit status 1; log:\n%s", bad, err, stderr.String())
			continue
		}
		flagName := strings.TrimPrefix(strings.Fields(bad)[0], "-")
		if first, _, _ := strings.Cut(stderr.String(), "\n"); !strings.HasPrefix(first, flagName+": ") {
			t.Errorf("census %s: refused without naming the flag: %q", bad, first)
		}
		if strings.Contains(stderr.String(), "world:") {
			t.Errorf("census %s: built its world before refusing", bad)
		}
		if _, err := os.Stat(save); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("census %s: made its -save directory (%v)", bad, err)
		}
	}
}

// A census continues the round numbers of the snapshot file it replaces,
// starts at round 1 only when there is no file, and refuses any other
// file rather than overwriting it.
func TestFirstRound(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "map.snap")
	if err := store.SaveSnapshotFile(snap, store.NewSnapshot(nil, nil, 7, 2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		path string
		want uint64
	}{
		{"no snapshot", "", 1},
		{"missing file", filepath.Join(dir, "absent.snap"), 1},
		{"earlier snapshot", snap, 8},
	} {
		if got, err := firstRound(tc.path); err != nil || got != tc.want {
			t.Errorf("%s: firstRound = %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}

	notes := filepath.Join(dir, "notes.txt")
	text := []byte("these notes are not a snapshot.\n")
	if err := os.WriteFile(notes, text, 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "torn.snap")
	if err := os.WriteFile(tornPath, torn[:len(torn)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{notes, tornPath, dir} {
		if got, err := firstRound(path); err == nil {
			t.Errorf("firstRound(%s) = %d, want an error", filepath.Base(path), got)
		}
	}
	if got, err := os.ReadFile(notes); err != nil || !bytes.Equal(got, text) {
		t.Errorf("notes.txt changed: %q, %v", got, err)
	}
}

// A census saves only into a new or empty directory, and refuses anything
// else before probing, leaving it as it was.
func TestPrepareSaveDir(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "runs", "D")
	for _, path := range []string{"", fresh, fresh} { // an empty DIR is reused
		if err := prepareSaveDir(path); err != nil {
			t.Fatalf("prepareSaveDir(%q) = %v", path, err)
		}
	}
	if st, err := os.Stat(fresh); err != nil || !st.IsDir() {
		t.Fatalf("%s not created: %v", fresh, err)
	}

	leftover := filepath.Join(fresh, "000-planetlab1.cs.princeton.edu.rec")
	if err := os.WriteFile(leftover, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	notADir := filepath.Join(dir, "notadir")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{fresh, filepath.Join(notADir, "D")} {
		if err := prepareSaveDir(path); err == nil {
			t.Errorf("prepareSaveDir(%s) = nil, want an error", path)
		}
	}
	if entries, err := os.ReadDir(fresh); err != nil || len(entries) != 1 {
		t.Errorf("refused directory changed: %v, %v", entries, err)
	}
	if st, err := os.Stat(notADir); err != nil || st.IsDir() {
		t.Errorf("notadir changed: %v", err)
	}
}

// saveRecords writes one record file per combined VP, in slot order, with
// one echo sample per answered cell carrying its RTT.
func TestSaveRecords(t *testing.T) {
	vps := platform.PlanetLab(cities.Default()).VPs()
	c := &census.Combined{
		VPs:     []platform.VP{vps[11], vps[2], vps[7]},
		Targets: []netsim.IP{0x01000001, 0x01000101, 0x01000201},
		RTTus:   [][]int32{{1500, -1, 1 << 30}, {-1, -1, -1}, {0, 42, -1}},
	}
	dir := t.TempDir()
	cells, err := saveRecords(dir, c)
	if err != nil || cells != 4 {
		t.Fatalf("saveRecords = %d, %v; want 4 samples", cells, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != len(c.VPs) {
		t.Fatalf("ReadDir = %v, %v; want %d files", entries, err, len(c.VPs))
	}
	for v, e := range entries {
		slot, name, _ := strings.Cut(strings.TrimSuffix(e.Name(), ".rec"), "-")
		if want := strconv.Itoa(v); slot != want || name != c.VPs[v].Name {
			t.Errorf("file %d is %s, want slot %s for %s", v, e.Name(), want, c.VPs[v].Name)
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var got, want []record.Sample
		for r := record.NewBinaryReader(f); ; {
			s, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			got = append(got, s)
		}
		f.Close()
		for ti, us := range c.RTTus[v] {
			if us >= 0 {
				want = append(want, record.Sample{Target: c.Targets[ti], Kind: netsim.ReplyEcho, RTT: time.Duration(us) * time.Microsecond})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: samples %+v, want %+v", e.Name(), got, want)
		}
	}
}

// Any fault fraction that is set yields a config for NewFaultPlan to
// validate: a negative or NaN one is refused instead of being read as "no
// faults" and running a fault-free census without a word.
func TestFaultConfig(t *testing.T) {
	if got := faultConfig(0, 7, 0, 0, 0, 0, 0); got != nil {
		t.Fatalf("no fault flags: %+v, want no faults", got)
	}
	want := netsim.FaultConfig{Seed: 7, CrashFraction: 0.25, CrashStickiness: 0.5}
	if got := faultConfig(0, 7, 0.25, 0.5, 0, 0, 0); got == nil || *got != want {
		t.Fatalf("-fault-crash 0.25 -fault-crash-sticky 0.5: %+v, want %+v", got, want)
	}
	if got := faultConfig(3, 7, 0, 0, 0, 0, 0.1); got == nil || got.Seed != 3 {
		t.Fatalf("-fault-seed 3: %+v", got)
	}
	nan := math.NaN()
	for _, fracs := range [][5]float64{{-0.5}, {nan}, {0, -1}, {0, 0, nan}, {0, 0, 0, -0.1}, {0, 0, 0, 0, math.Inf(-1)}} {
		fc := faultConfig(0, 7, fracs[0], fracs[1], fracs[2], fracs[3], fracs[4])
		if fc == nil {
			t.Errorf("fault fractions %v: no fault config, so nothing validates them", fracs)
			continue
		}
		if _, err := netsim.NewFaultPlan(*fc); err == nil {
			t.Errorf("fault fractions %v: plan accepted", fracs)
		}
	}
}
