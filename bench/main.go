// Command bench is the repository's benchmark: census-to-answer and
// query-to-answer on four workloads, measured from outside by timing
// calls into anycastmap/internal/..., with a per-layer ledger and a
// traced run. See README.md.
//
//	bench -workload census-wide -seed 7 -seconds 30 -trace 0   one run, the builder contract's form
//	bench                                                       every workload untraced, then traced
//	bench -compare a.json b.json                                gate b against a
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// manifest is BENCHMARK.json: the one declaration of workloads, metrics,
// units, directions and bounds. The program fills in values and refuses
// to report a set of names that differs from it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s declares %d workloads, workloads.go has %d", path, len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name {
			return nil, fmt.Errorf("%s workload %d is %q, workloads.go has %q", path, i, w.Name, workloads[i].Name)
		}
	}
	return &m, nil
}

// declared returns the metrics a run of the given kind must report.
func (m *manifest) declared(trace bool) []metricDecl {
	if trace {
		return m.PerLayer
	}
	return m.EndToEnd
}

// project keeps the declared metrics of res, and fails when one is
// missing or not a finite number.
func (m *manifest) project(res runResult) (map[string]measurement, error) {
	out := make(map[string]measurement)
	for _, d := range m.declared(res.Trace) {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", res.Workload, d.Name, v.Value)
		}
		out[d.Name] = v
	}
	return out, nil
}

// machine records where a result was taken; results from different
// machines or toolchains are not comparable.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GOARCH: runtime.GOARCH, Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				m.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is a
	// convenience for results taken in one.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// results is bench/out/results.json: every workload, untraced then
// traced, from one invocation.
type results struct {
	Machine  machine     `json:"machine"`
	Captured string      `json:"captured"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Scale    string      `json:"scale"`
	Runs     []runResult `json:"runs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the contract's result line; empty runs all of them, untraced then traced")
		seed         = flag.Uint64("seed", 2015, "workload seed: world, vantage-point samples, traffic")
		seconds      = flag.Float64("seconds", 0, "length of a run, set-up included; 0 takes run_seconds from the manifest")
		trace        = flag.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
		scaleName    = flag.String("scale", "full", "full or smoke")
		outDir       = flag.String("out", "bench/out", "directory for results.json, traces and snapshot files")
		manifestPath = flag.String("manifest", "BENCHMARK.json", "the benchmark declaration")
		compare      = flag.Bool("compare", false, "compare two results.json files (a b): exit 1 when b breaches a bound against a")
	)
	flag.Parse()
	err := func() error {
		man, err := loadManifest(*manifestPath)
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return errors.New("-compare takes two results.json files")
			}
			return compareFiles(man, flag.Arg(0), flag.Arg(1))
		}
		sc, ok := scales[*scaleName]
		if !ok {
			return fmt.Errorf("unknown scale %q", *scaleName)
		}
		if *trace != 0 && *trace != 1 {
			return fmt.Errorf("-trace is 0 or 1, not %d", *trace)
		}
		cfg := runConfig{Scale: sc, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir}
		if cfg.Seconds <= 0 {
			cfg.Seconds = float64(man.RunSeconds)
		}
		if *workloadName == "" {
			return runAll(man, cfg)
		}
		if cfg.Workload, err = findWorkload(*workloadName); err != nil {
			return err
		}
		res, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		printTable(man, res)
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "bench: failed:", f)
		}
		return printContractLine(man, res)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload untraced, then traced, prints the tables and
// writes results.json.
func runAll(man *manifest, cfg runConfig) error {
	all := results{Machine: thisMachine(), Captured: time.Now().UTC().Format(time.RFC3339), Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale.Name}
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			cfg.Workload, cfg.Trace = w, traced
			res, err := runWorkload(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if res.Metrics, err = man.project(res); err != nil {
				return err
			}
			printTable(man, res)
			all.Runs = append(all.Runs, res)
			runtime.GC()
		}
	}
	crossCheck(&all)
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.OutDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	for _, run := range all.Runs {
		if !run.Correct {
			return fmt.Errorf("%s (trace %v): %d of %d ops failed: %s", run.Workload, run.Trace, run.OpsFailed, run.Ops, strings.Join(run.Failures, "; "))
		}
	}
	return nil
}

// crossCheck holds the fleet's census to the one-process census of the
// same inputs: same seed, same digest.
func crossCheck(all *results) {
	sums := map[bool]map[string]string{false: {}, true: {}}
	for _, run := range all.Runs {
		sums[run.Trace][run.Workload] = run.Checksum
	}
	for i := range all.Runs {
		run := &all.Runs[i]
		if run.Workload != "census-fleet" {
			continue
		}
		if wide := sums[run.Trace]["census-wide"]; wide != "" && wide != run.Checksum {
			run.Correct = false
			run.OpsFailed++
			run.Failures = append(run.Failures, fmt.Sprintf("checksum %s differs from census-wide's %s", run.Checksum, wide))
		}
	}
}

// printTable prints every declared metric of one run by name, with its
// unit and sample count.
func printTable(man *manifest, res runResult) {
	kind := "untraced, end-to-end"
	if res.Trace {
		kind = "traced, per-layer"
	}
	fmt.Printf("\n%s  seed %d  (%s)\n", res.Workload, res.Seed, kind)
	for _, d := range man.declared(res.Trace) {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("  %-36s %16.6g %-6s n=%d\n", d.Name, v.Value, d.Unit, v.N)
		} else {
			fmt.Printf("  %-36s %16s\n", d.Name, "missing")
		}
	}
	ratio := 0.0
	if res.Ops > 0 {
		ratio = float64(res.OpsFailed) / float64(res.Ops)
	}
	fmt.Printf("  %-36s %16.6g %-6s ops=%d ops_failed=%d checksum=%s\n", "fail_ratio", ratio, "ratio", res.Ops, res.OpsFailed, res.Checksum)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// printContractLine prints the builder contract's result: one JSON
// object, last on standard output.
func printContractLine(man *manifest, res runResult) error {
	ms, err := man.project(res)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Ops, Failed: res.OpsFailed, Metrics: map[string]value{}}
	for _, d := range man.declared(res.Trace) {
		out.Metrics[d.Name] = value{Value: ms[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// compareFiles gates results b against results a: every end-to-end
// metric of every workload may be worse by at most its declared bound.
func compareFiles(man *manifest, pathA, pathB string) error {
	load := func(path string) (*results, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	// The same-machine rule: a ratio across boxes or toolchains measures
	// the box.
	if a.Machine.NProc != b.Machine.NProc || a.Machine.GOMAXPROCS != b.Machine.GOMAXPROCS || a.Machine.Go != b.Machine.Go || a.Machine.CPUModel != b.Machine.CPUModel {
		return fmt.Errorf("refusing to compare: %s was taken on %d cpus (%s, %s), %s on %d cpus (%s, %s)",
			pathA, a.Machine.NProc, a.Machine.CPUModel, a.Machine.Go, pathB, b.Machine.NProc, b.Machine.CPUModel, b.Machine.Go)
	}
	if a.Seconds != b.Seconds || a.Scale != b.Scale {
		return fmt.Errorf("refusing to compare: run length or scale differ (%vs %s vs %vs %s)", a.Seconds, a.Scale, b.Seconds, b.Scale)
	}
	index := func(r *results) map[string]runResult {
		out := map[string]runResult{}
		for _, run := range r.Runs {
			out[fmt.Sprintf("%s/%v", run.Workload, run.Trace)] = run
		}
		return out
	}
	ia, ib := index(a), index(b)
	keys := make([]string, 0, len(ia))
	for k := range ia {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	breaches := 0
	fmt.Printf("%-14s %-36s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, k := range keys {
		ra, rb := ia[k], ib[k]
		if rb.Workload == "" {
			return fmt.Errorf("%s has no run %s", pathB, k)
		}
		if !rb.Correct {
			fmt.Printf("%-14s ops_failed %d of %d in %s\n", rb.Workload, rb.OpsFailed, rb.Ops, pathB)
			breaches++
		}
		for _, d := range man.declared(ra.Trace) {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if d.Better == "higher" {
					worse = -worse
				}
			}
			mark := ""
			if !ra.Trace && worse > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			bound := "-"
			if !ra.Trace {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Printf("%-14s %-36s %14.6g %14.6g %+8.1f%% %7s%s\n", ra.Workload, d.Name, va, vb, 100*worse, bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches", breaches)
	}
	return nil
}
