package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const manifestFile = "../BENCHMARK.json"

// TestManifestMeetsContract holds BENCHMARK.json to the limits the
// driver refuses a file outside of.
func TestManifestMeetsContract(t *testing.T) {
	man, err := loadManifest(manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("manifest has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	// 4 + 22 runs per workload, each run_seconds (set-up is inside the
	// window) plus ~2 s of start-up, final checks and teardown, must fit
	// the driver's 3420 s with room for two builds and the longer traced
	// runs.
	if total := (4 + 22*len(man.Workloads)) * (man.RunSeconds + 2); total > 3000 {
		t.Errorf("%d runs of ~%d s need %d s, over the budget", 4+22*len(man.Workloads), man.RunSeconds+2, total)
	}
	for _, w := range man.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range man.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricDecl(nil), man.EndToEnd...), man.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range man.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestWorkloadsSmoke runs every workload at smoke scale, untraced and
// traced: each run must report exactly the declared metrics, fail no op,
// and fold the same matrix both times; the fleet must fold what the
// one-process census folds.
func TestWorkloadsSmoke(t *testing.T) {
	man, err := loadManifest(manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	sums := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{Workload: w, Scale: scales["smoke"], Seed: 7, Seconds: 0.3, Trace: traced, OutDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.OpsFailed != 0 || res.Ops == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed: %v", w.Name, traced, res.Correct, res.OpsFailed, res.Ops, res.Failures)
			}
			got, err := man.project(res)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, traced, err)
				continue
			}
			if want := len(man.declared(traced)); len(got) != want {
				t.Errorf("%s trace=%v: %d metrics, the manifest declares %d", w.Name, traced, len(got), want)
			}
			if !traced {
				for name, v := range got {
					if v.Value <= 0 || v.N == 0 {
						t.Errorf("%s: end-to-end metric %s = %v over %d samples", w.Name, name, v.Value, v.N)
					}
				}
			} else if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: no Chrome trace written: %v", w.Name, err)
			}
			if prev, ok := sums[w.Name]; ok && prev != res.Checksum {
				t.Errorf("%s: checksum %s on repeat, %s before", w.Name, res.Checksum, prev)
			}
			sums[w.Name] = res.Checksum
		}
	}
	if sums["census-wide"] != sums["census-fleet"] {
		t.Errorf("census-fleet folded %s, census-wide %s", sums["census-fleet"], sums["census-wide"])
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input must give NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestWindows(t *testing.T) {
	ms := time.Millisecond
	w := newWindows(10*ms, 35*ms) // three whole windows; [30,35) is partial
	for _, at := range []time.Duration{1 * ms, 5 * ms, 9 * ms, 21 * ms, 32 * ms, 40 * ms, -1 * ms} {
		w.add(at)
	}
	if want := []float64{300, 0, 100}; !equal(w.perSecond(), want) {
		t.Errorf("rates %v, want %v", w.perSecond(), want)
	}
	var sum windows
	sum.merge(w)
	sum.merge(w)
	if want := []float64{600, 0, 200}; !equal(sum.perSecond(), want) {
		t.Errorf("merged rates %v, want %v", sum.perSecond(), want)
	}
	if w := newWindows(10*ms, 5*ms); len(w.perSecond()) != 0 {
		t.Errorf("a phase shorter than one window has %d windows", len(w.counts))
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "grandchild", Start: 12, End: 20, Parent: 1},
		{Name: "other", Start: 0, End: 100, Parent: -1},
	}
	if got := selfTime(spans, 0); got != 40 {
		t.Errorf("parent self time %v, want 40 (100 - [10,60] - [90,100])", got)
	}
	if got := selfTime(spans, 1); got != 22 {
		t.Errorf("a self time %v, want 22", got)
	}
	if got := selfTime(spans, 5); got != 100 {
		t.Errorf("childless span self time %v, want 100", got)
	}

	tr := newTracer(true)
	root := tr.begin("root", -1, 0)
	tr.call("child", root, 0, func() {})
	tr.end(root)
	open := tr.begin("never closed", -1, 0)
	if got := tr.snapshot(); len(got) != 2 || got[1].Parent != root || open != 2 {
		t.Errorf("snapshot %+v", got)
	}
	if off := newTracer(false); off.begin("x", -1, 0) != -1 || len(off.snapshot()) != 0 {
		t.Error("a disabled tracer recorded a span")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != len(spans) {
		t.Errorf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestTxtVersion(t *testing.T) {
	rdata := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	if v, ok := txtVersion(rdata("policy=nearest-replica via=x client=1.2.3.0/24 v=17")); !ok || v != 17 {
		t.Errorf("got %d, %v", v, ok)
	}
	for _, bad := range [][]byte{nil, {5, 'a'}, rdata("no version"), rdata("x v=abc")} {
		if _, ok := txtVersion(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestReadHTTPResponse(t *testing.T) {
	stream := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello" +
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n" +
		"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n" +
		"HTTP/1.1 200 OK\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(stream))
	for _, want := range []struct {
		status int
		body   string
	}{{200, "hello"}, {200, "abcde"}, {503, ""}} {
		status, body, err := readHTTPResponse(br, nil)
		if err != nil || status != want.status || string(body) != want.body {
			t.Errorf("got %d %q %v, want %d %q", status, body, err, want.status, want.body)
		}
	}
	if _, _, err := readHTTPResponse(br, nil); err == nil {
		t.Error("a response without a length was accepted")
	}
}

func TestCompare(t *testing.T) {
	man, err := loadManifest(manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, r results) string {
		data, _ := json.Marshal(r)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := func(scale float64) results {
		r := results{Machine: machine{NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", CPUModel: "x"}, Seconds: 30, Scale: "full"}
		for _, w := range workloads {
			run := runResult{Workload: w.Name, Correct: true, Ops: 10, Metrics: map[string]measurement{}}
			for _, d := range man.EndToEnd {
				v := 100.0
				if d.Better == "higher" {
					v /= scale
				} else {
					v *= scale
				}
				run.Metrics[d.Name] = measurement{Value: v, N: 3}
			}
			r.Runs = append(r.Runs, run)
		}
		return r
	}
	a := write("a.json", base(1))
	if err := compareFiles(man, a, write("same.json", base(1.04))); err != nil {
		t.Errorf("4%% worse on every metric breached: %v", err)
	}
	if err := compareFiles(man, a, write("worse.json", base(1.40))); err == nil {
		t.Error("40% worse on every metric passed")
	}
	if err := compareFiles(man, a, write("better.json", base(0.5))); err != nil {
		t.Errorf("an improvement breached: %v", err)
	}
	other := base(1)
	other.Machine.NProc = 8
	if err := compareFiles(man, a, write("other.json", other)); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("results from an 8-cpu machine were compared: %v", err)
	}
	failed := base(1)
	failed.Runs[0].Correct, failed.Runs[0].OpsFailed = false, 1
	if err := compareFiles(man, a, write("failed.json", failed)); err == nil {
		t.Error("a run with failed ops passed")
	}
}
