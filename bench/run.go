package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"anycastmap/internal/analysis"
	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/cluster"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
	"anycastmap/internal/route"
	"anycastmap/internal/store"
)

// runConfig is one invocation: a workload, a seed, a window length and
// whether the run is traced.
type runConfig struct {
	Workload workload
	Scale    scale
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string
}

// measurement is one metric value with the number of samples (reps or
// windows) its median was taken over.
type measurement struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// runResult is everything one run produced. An untraced run fills the
// end-to-end metrics, a traced run the per-layer ones.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Metrics   map[string]measurement `json:"metrics"`
	Ops       int                    `json:"ops"`
	OpsFailed int                    `json:"ops_failed"`
	Correct   bool                   `json:"correct"`
	// Checksum is the FNV-1a digest of the folded matrix, the greylist
	// and the analysis outcomes; MatrixChecksum stops before the outcomes.
	Checksum       string   `json:"checksum"`
	MatrixChecksum string   `json:"matrix_checksum"`
	Failures       []string `json:"failures,omitempty"`
}

// run is the mutable state of one invocation.
type run struct {
	cfg runConfig
	w   workload
	tr  *tracer
	off *tracer // a disabled tracer, for the untraced reps of a traced run

	ops, failed int
	failures    []string
	m           map[string]measurement
}

// failf records one failed op and why.
func (r *run) failf(format string, args ...any) {
	r.failed++
	r.notef(format, args...)
}

// notef records why ops that are already counted failed.
func (r *run) notef(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, value float64, n int) { r.m[name] = measurement{Value: value, N: n} }

// env is what set-up hands to the census: the world and everything
// derived from it before the first round.
type env struct {
	world   *netsim.World
	db      *cities.DB
	pl      *platform.Platform
	table   *bgp.Table
	targets *hitlist.Hitlist // every pruned target: the seed census
	sample  *hitlist.Hitlist // the few of them the timed reps census
	black   *prober.Greylist
	rounds  [][]platform.VP
}

// setup builds the world, the platform, the routing table and the
// hitlist, runs the blacklist census, prunes the target list, and
// resolves every sampled vantage point's probing session — the lazy state
// a long-lived census daemon holds warm, built here so that the measured
// reps all see it and so that work moved into set-up shows in setup_s.
// Besides each named stage's wall it returns the set-up's parts in the
// order they ran: every stage but the last whole, the sessions in chunks of
// sessionChunk vantage points, so that no part is much longer than the
// 10-25 ms this host leaves a thread alone (README, "Noise").
func (r *run) setup(rep int) (*env, map[string]time.Duration, []time.Duration, error) {
	w, seed, tr := r.w, r.cfg.Seed, r.tr
	e := &env{}
	stage := map[string]time.Duration{}
	var parts []time.Duration
	root := tr.begin("setup", -1, rep)
	start := time.Now()
	step := func(name string, f func()) {
		stage[name] = tr.call(name, root, rep, f)
		parts = append(parts, stage[name])
	}

	wcfg := netsim.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Unicast24s = w.Unicast24s
	step("netsim.New", func() { e.world = netsim.New(wcfg) })
	step("platform", func() {
		e.db = cities.Default()
		if w.Platform == "ripe" {
			e.pl = platform.RIPEAtlas(e.db)
		} else {
			e.pl = platform.PlanetLab(e.db)
		}
		for round := 1; round <= w.Rounds; round++ {
			e.rounds = append(e.rounds, e.pl.Sample(w.VPsPerRound, seed+uint64(round)))
		}
	})
	step("bgp.FromWorld", func() { e.table = bgp.FromWorld(e.world) })
	var full *hitlist.Hitlist
	step("hitlist.FromWorld", func() { full = hitlist.FromWorld(e.world) })
	var err error
	step("prober.BuildBlacklist", func() {
		e.black, err = prober.BuildBlacklist(e.world, e.pl.VPs()[0], full.Targets(), prober.Config{Seed: seed})
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("blacklist census: %w", err)
	}
	step("hitlist.Prune", func() {
		e.targets = full.PruneNeverAlive().Without(e.black.Targets())
	})
	if e.targets.Len() == 0 {
		return nil, nil, nil, errors.New("pruned target list is empty")
	}
	step("hitlist.sample", func() {
		e.sample = sampleTargets(e.world, e.targets, w.SampleAnycast, w.SampleUnicast)
	})
	stage["netsim.sessions"] = tr.call("netsim.sessions", root, rep, func() {
		first := e.targets.Targets()[:1]
		n := 0
		t0 := time.Now()
		for _, vps := range e.rounds {
			for _, vp := range vps {
				e.world.ProbeSpanSession(vp, first)
				if n++; n%sessionChunk == 0 {
					now := time.Now()
					parts = append(parts, now.Sub(t0))
					t0 = now
				}
			}
		}
		parts = append(parts, time.Since(t0))
	})
	stage["setup"] = time.Since(start)
	tr.end(root)
	return e, stage, parts, nil
}

// sessionChunk is how many vantage points' probing sessions make one part
// of a set-up's time: about 15 ms of the 150-250 ms the stage takes.
const sessionChunk = 24

// sampleTargets thins the pruned list to the sampled census: anycast of
// the anycast targets, taken at even steps through the deployments ordered
// by replica count, and unicast of the others, at even steps through the
// list. The order by replica count is what makes a rep cost the same on
// every seed: analysing a /24 costs with the replicas it has, and a few
// dozen drawn blindly would hold a different share of large deployments
// each time.
func sampleTargets(world *netsim.World, targets *hitlist.Hitlist, anycast, unicast int) *hitlist.Hitlist {
	type sized struct {
		ip       netsim.IP
		replicas int
	}
	var any []sized
	var uni []netsim.IP
	for _, en := range targets.Entries() {
		if d, ok := world.Deployment(en.Prefix); ok {
			any = append(any, sized{en.IP, len(d.Replicas)})
		} else {
			uni = append(uni, en.IP)
		}
	}
	sort.SliceStable(any, func(i, j int) bool { return any[i].replicas < any[j].replicas })
	drop := make(map[netsim.IP]bool, targets.Len())
	for _, ip := range targets.Targets() {
		drop[ip] = true
	}
	// keep takes want of n items at even steps, centred in their strides.
	keep := func(n, want int, at func(int) netsim.IP) {
		want = min(want, n)
		for k := 0; k < want; k++ {
			delete(drop, at((2*k+1)*n/(2*want)))
		}
	}
	keep(len(any), anycast, func(i int) netsim.IP { return any[i].ip })
	keep(len(uni), unicast, func(i int) netsim.IP { return uni[i] })
	return targets.Without(drop)
}

// serving is the query path under test: a store, the routing engine, one
// DNS/UDP listener and the HTTP API, all in this process on loopback.
type serving struct {
	st       *store.Store
	eng      *route.Engine
	dns      *route.Server
	api      *store.API
	httpLn   net.Listener
	httpSrv  *http.Server
	httpDone chan struct{}
	probe    *net.UDPConn
	zone     []byte
	pubs     *publishLog
	snapPath string // the census reps' and the publisher's snapshot file
	seedPath string // the seed census's
}

func newServing(e *env, seed uint64, dir string) (*serving, error) {
	s := &serving{
		st:       store.New(store.Options{}),
		pubs:     newPublishLog(),
		snapPath: filepath.Join(dir, fmt.Sprintf("census-%d.snap", os.Getpid())),
		seedPath: filepath.Join(dir, fmt.Sprintf("seed-%d.snap", os.Getpid())),
	}
	var err error
	if s.zone, err = route.EncodeName(nil, route.DefaultZone); err != nil {
		return nil, err
	}
	s.eng, err = route.NewEngine(route.Config{Store: s.st, Locator: route.HashLocator{Seed: seed}, VPs: e.pl.VPs()})
	if err != nil {
		return nil, err
	}
	s.dns, err = route.NewServer(route.ServerConfig{Addr: "127.0.0.1:0", Listeners: 1, Engine: s.eng})
	if err != nil {
		return nil, err
	}
	s.api = store.NewAPI(s.st, nil, store.APIConfig{})
	if s.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.dns.Close()
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.api}
	s.httpDone = make(chan struct{})
	go func() {
		defer close(s.httpDone)
		s.httpSrv.Serve(s.httpLn) // returns ErrServerClosed from close
	}()
	pc, err := net.Dial("udp", s.dns.Addr().String())
	if err != nil {
		s.close()
		return nil, err
	}
	s.probe = pc.(*net.UDPConn)
	return s, nil
}

func (s *serving) close() {
	if s.probe != nil {
		s.probe.Close()
	}
	s.httpSrv.Close()
	<-s.httpDone
	s.dns.Close()
	if snap := s.st.Current(); snap != nil {
		snap.Close()
	}
	os.Remove(s.snapPath)
	os.Remove(s.seedPath)
}

// publish hands a snapshot to the store, telling the generators which
// version to expect so the first answer carrying it can be dated.
func (s *serving) publish(snap *store.Snapshot) (uint64, error) {
	want := s.pubs.latest.Load() + 1
	s.pubs.announce(want)
	// latest moves before the store does: Publish makes the version
	// visible and then still has the replaced snapshot to close, and a
	// phase that ended in between would find an answer newer than latest.
	s.pubs.latest.Store(want)
	got := s.st.Publish(snap)
	if got != want {
		return got, fmt.Errorf("published version %d, expected %d", got, want)
	}
	return got, nil
}

// firstAnswer asks the DNS front-end about svc until a TXT answer carries
// the wanted snapshot version.
func (s *serving) firstAnswer(svc netsim.Prefix24, want uint64) error {
	var in [2048]byte
	for try := 0; try < 100; try++ {
		pkt := route.AppendQuery(nil, uint16(try), svc, route.PolicyNone, s.zone, qtypeTXT, clientBase)
		if _, err := s.probe.Write(pkt); err != nil {
			return err
		}
		s.probe.SetReadDeadline(time.Now().Add(udpTimeout))
		n, err := s.probe.Read(in[:])
		if err != nil {
			return err
		}
		qend := len(pkt) - optTail
		if n < qend+answerRR || in[3]&0x0f != route.RcodeNoError {
			return fmt.Errorf("first answer for %v: rcode %d, %d bytes", svc, in[3]&0x0f, n)
		}
		if v, ok := txtVersion(in[qend+answerRR : n]); ok && v == want {
			s.pubs.sighted(v, time.Now())
			return nil
		}
	}
	return fmt.Errorf("no answer from version %d after 100 queries", want)
}

// repResult is one census_to_answer repetition.
type repResult struct {
	traced     bool
	wall       time.Duration
	stages     []time.Duration // the child spans' walls, in the order they ran
	rounds     []time.Duration
	roundSpans []int
	analyze    time.Duration
	attribute  time.Duration
	build      time.Duration
	save       time.Duration
	open       time.Duration
	publish    time.Duration
	firstAns   time.Duration
	cpuS       float64
	heapMiB    float64
	probes     int
	health     census.CampaignHealth
	fleet      cluster.Stats
	matrixSum  uint64
	checksum   uint64
	combined   *census.Combined
	outcomes   []census.Outcome
	findings   []analysis.Finding
}

// children is the sum of the child spans' walls.
func (rr *repResult) children() time.Duration {
	var d time.Duration
	for _, x := range rr.stages {
		d += x
	}
	return d
}

// undisturbed is what one rep takes when nothing outside the process
// slows any of its stages: the least each stage took over reps, summed,
// and the same over the rounds alone. A whole rep of 25-50 ms is longer
// than this host leaves one thread alone, so the fastest of a few hundred
// still carries a share of someone else's work that changes from run to
// run; a stage of 10 ms does fit (README, "Noise").
func undisturbed(reps []*repResult) (rep, rounds time.Duration) {
	stages, rnds := make([][]time.Duration, len(reps)), make([][]time.Duration, len(reps))
	for i, rr := range reps {
		stages[i], rnds[i] = rr.stages, rr.rounds
	}
	return leastSum(stages), leastSum(rnds)
}

// leastSum adds up, over the parts of a repeated piece of work, the least
// each part took in any repetition; every row lists the same parts in the
// same order.
func leastSum(reps [][]time.Duration) time.Duration {
	var sum time.Duration
	for k := range reps[0] {
		best := reps[0][k]
		for _, parts := range reps[1:] {
			best = min(best, parts[k])
		}
		sum += best
	}
	return sum
}

func (rr *repResult) probePhase() time.Duration {
	var d time.Duration
	for _, x := range rr.rounds {
		d += x
	}
	return d
}

// censusConfig is the probing configuration of the workload: the fleet
// runs with the retry budget its fault plan needs, the one-process census
// with the defaults. Retries never change a sample, so both fold the same
// matrix.
func (r *run) censusConfig() census.Config {
	cfg := census.Config{Seed: r.cfg.Seed}
	if r.w.Fleet {
		cfg.MaxAttempts = fleetMaxAttempts
		cfg.RetryBackoff = fleetRetryBackoff
	}
	return cfg
}

// rep runs one census_to_answer repetition over targets: target list in
// hand → rounds → analysis → attribution → snapshot build, persist,
// reopen → publish → first DNS answer from the new version. The seed rep
// also collects garbage once its last round is folded and reads the live
// heap; a timed rep does not, because a collection of the process's whole
// heap would be a fifth of it.
func (r *run) rep(e *env, sv *serving, targets *hitlist.Hitlist, i int, traced bool) (repResult, error) {
	fleet, seed := r.w.Fleet, targets == e.targets
	tr := r.off
	if traced {
		tr = r.tr
	}
	rr := repResult{traced: traced}
	cpu0 := processCPU()
	root := tr.begin("census_to_answer", -1, i)
	child := func(name string, f func()) time.Duration {
		d := tr.call(name, root, i, f)
		rr.stages = append(rr.stages, d)
		return d
	}
	start := time.Now()

	ccfg := r.censusConfig()
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	var coord *cluster.Coordinator
	var agents *cluster.Harness
	var err error
	if fleet {
		child("cluster.start", func() {
			fcfg := netsim.FaultConfig{Seed: r.cfg.Seed, CrashFraction: fleetCrashFraction}
			var plan *netsim.FaultPlan
			if plan, err = netsim.NewFaultPlan(fcfg); err != nil {
				return
			}
			coord, err = cluster.NewCoordinator(cluster.Config{
				Campaign: cp, Targets: targets.Targets(), Blacklist: e.black, Census: ccfg,
				World: e.world.Config(), Faults: &fcfg, ShardTargets: fleetShardTargets,
			})
			if err != nil {
				return
			}
			agents, err = cluster.NewHarness(coord, cluster.HarnessConfig{
				Agents: fleetAgents,
				Agent:  cluster.AgentConfig{World: e.world.WithFaults(plan), Capacity: 1},
			})
			if err != nil {
				coord.Close()
			}
		})
		if err != nil {
			return rr, fmt.Errorf("fleet start: %w", err)
		}
	}
	for ri, vps := range e.rounds {
		round := uint64(ri + 1)
		var sum census.RoundSummary
		id := tr.begin(fmt.Sprintf("census.round[%d]", ri), root, i)
		t0 := time.Now()
		if fleet {
			sum, err = coord.ExecuteRound(context.Background(), round, vps)
		} else {
			sum, err = cp.ExecuteRoundPipelined(context.Background(), e.world, vps, targets, e.black, round, census.PipelineConfig{})
		}
		d := time.Since(t0)
		tr.end(id)
		rr.stages = append(rr.stages, d)
		rr.rounds = append(rr.rounds, d)
		rr.roundSpans = append(rr.roundSpans, id)
		rr.probes += sum.Probes
		if err != nil {
			if agents != nil {
				agents.Close()
			}
			return rr, fmt.Errorf("round %d: %w", round, err)
		}
	}
	if seed {
		// Live heap once the last round is folded, the fleet still attached.
		child("runtime.GC", func() {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			rr.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
		})
	}
	if fleet {
		child("cluster.close", func() {
			rr.fleet = coord.Stats()
			agents.Close()
		})
	}
	rr.health = cp.Health()
	rr.combined = cp.Combined()

	rr.analyze = child("census.AnalyzeAll", func() {
		rr.outcomes = census.AnalyzeAll(e.db, rr.combined, core.Options{}, 0, 0)
	})
	rr.attribute = child("analysis.Attribute", func() { rr.findings = analysis.Attribute(rr.outcomes, e.table) })
	if len(rr.findings) == 0 {
		return rr, errors.New("census detected no anycast /24")
	}
	var snap, mapped *store.Snapshot
	rr.build = child("store.NewSnapshot", func() {
		snap = store.NewSnapshot(rr.findings, e.world.Registry, uint64(r.w.Rounds), r.w.Rounds)
		snap.SetHealth(rr.health)
	})
	rr.save = child("store.SaveSnapshotFile", func() { err = store.SaveSnapshotFile(sv.snapPath, snap) })
	if err != nil {
		return rr, err
	}
	rr.open = child("store.OpenSnapshotFile", func() { mapped, err = store.OpenSnapshotFile(sv.snapPath) })
	if err != nil {
		return rr, err
	}
	var version uint64
	rr.publish = child("store.Publish", func() { version, err = sv.publish(mapped) })
	if err != nil {
		return rr, err
	}
	rr.firstAns = child("route.first_answer", func() { err = sv.firstAnswer(rr.findings[0].Prefix, version) })
	if err != nil {
		return rr, err
	}
	rr.wall = time.Since(start)
	tr.end(root)
	rr.cpuS = (processCPU() - cpu0).Seconds()

	rr.matrixSum, rr.checksum = checksum(rr.combined, cp.Greylist(), rr.outcomes)
	return rr, nil
}

// processCPU reads the CPU time this process has used, user and system,
// from the scheduler's own nanosecond accounting. getrusage reports the
// same total on this kernel but other kernels round it to clock ticks, a
// tenth of a timed rep.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// checksum digests what a census produced: every combined min-RTT cell
// in VP order, the greylist in address order, then the outcomes. The
// first return value is the digest before the outcomes are added.
func checksum(c *census.Combined, grey *prober.Greylist, outcomes []census.Outcome) (matrix, all uint64) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for vi, row := range c.RTTus {
		put(uint64(c.VPs[vi].ID))
		writeInt32s(h, row)
	}
	gl := grey.Snapshot()
	ips := make([]netsim.IP, 0, len(gl))
	for ip := range gl {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		put(uint64(ip)<<8 | uint64(gl[ip]))
	}
	matrix = h.Sum64()
	for _, o := range outcomes {
		put(uint64(o.Target))
		put(uint64(len(o.Result.Replicas)))
		for _, g := range o.Result.Replicas {
			h.Write([]byte(g.VP))
			if g.Located {
				h.Write([]byte(g.City.Key()))
			}
		}
	}
	return matrix, h.Sum64()
}

func writeInt32s(h hash.Hash64, row []int32) {
	var buf [4096]byte
	for len(row) > 0 {
		n := min(len(row), len(buf)/4)
		for i, v := range row[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		h.Write(buf[:4*n])
		row = row[n:]
	}
}

// checkRep verifies one repetition's outputs and accounts its ops: one
// per (VP, span) unit, failed when the unit's VP was quarantined. Any
// failed output check fails the run.
func (r *run) checkRep(e *env, targets int, rr *repResult, first *repResult) {
	spans := len(census.ShardSpans(targets, census.PipelineConfig{}.EffectiveSpanTargets()))
	units, expected := 0, 0
	for _, vps := range e.rounds {
		units += len(vps) * spans
		expected += len(vps) * targets
	}
	r.ops += units
	if q := len(rr.health.Quarantined); q > 0 {
		r.failed += q * spans
		r.notef("%d vantage points quarantined", q)
	}
	if rr.probes != expected {
		r.failf("sent %d probes, expected %d (%d targets)", rr.probes, expected, targets)
	}
	for _, f := range rr.findings {
		if !e.world.IsAnycast(f.Prefix) {
			r.failf("detected %v, which the world does not hold as anycast", f.Prefix)
			break
		}
	}
	if first != nil && rr.checksum != first.checksum {
		r.failf("checksum %016x differs from the first rep's %016x", rr.checksum, first.checksum)
	}
}

// publisher rebuilds, persists, reopens and publishes the snapshot on an
// interval, beside the serving phases. It is started and closed around
// each of them and keeps its timings across.
type publisher struct {
	stop chan struct{}
	done chan struct{}

	cycles                     int
	build, save, open, publish []time.Duration
	err                        error
}

func (p *publisher) start(sv *serving, e *env, findings []analysis.Finding, rounds int, every time.Duration, tr *tracer) {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for ; ; p.cycles++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			n := p.cycles
			root := tr.begin("publish", -1, n)
			var snap, mapped *store.Snapshot
			var err error
			p.build = append(p.build, tr.call("store.NewSnapshot", root, n, func() {
				snap = store.NewSnapshot(findings, e.world.Registry, uint64(rounds), rounds)
			}))
			p.save = append(p.save, tr.call("store.SaveSnapshotFile", root, n, func() {
				err = store.SaveSnapshotFile(sv.snapPath, snap)
			}))
			if err == nil {
				p.open = append(p.open, tr.call("store.OpenSnapshotFile", root, n, func() {
					mapped, err = store.OpenSnapshotFile(sv.snapPath)
				}))
			}
			if err == nil {
				p.publish = append(p.publish, tr.call("store.Publish", root, n, func() {
					_, err = sv.publish(mapped)
				}))
			}
			tr.end(root)
			if err != nil {
				p.err = err
				return
			}
		}
	}()
}

func (p *publisher) close() {
	close(p.stop)
	<-p.done
}

// cpuClock reads the runtime's own CPU accounting: total and GC
// core-seconds since the process started.
func cpuClock() (total, gc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		total = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gc = s[1].Value.Float64()
	}
	return total, gc
}

// heapPeak samples the live-object heap every few milliseconds (through
// runtime/metrics, which does not stop the world) and keeps the maximum.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) close() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runWorkload is the benchmark: set-up, the seed census, then cycles of
// census reps, DNS saturation and pipelined HTTP until the window is
// spent, the output checks and, on a traced run, the round-trip phases, the
// open loop, the generator calibration and the per-layer microloops.
//
// The three kinds of work take turns in short bursts instead of one long
// phase each, so that every metric draws its samples from the whole
// window: the host's busy spells last up to tens of seconds, and a phase
// that fell wholly inside one would have no undisturbed sample to report.
func runWorkload(cfg runConfig) (runResult, error) {
	// One processor: the program's goroutines take turns on one thread, so
	// a timing is the CPU the work costs and does not depend on where the
	// host has put the second virtual core (README, "Noise").
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The window is the whole run, set-up included: --seconds after this
	// line the last cycle has ended.
	windowStart := time.Now()
	r := &run{cfg: cfg, w: cfg.Workload.at(cfg.Scale), tr: newTracer(cfg.Trace), off: newTracer(false), m: map[string]measurement{}}
	w, sc := r.w, cfg.Scale
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return runResult{}, err
	}

	// Set-up, SetupReps times before anything else (the first pays for the
	// process's cold start; the last is the one the run uses) and once more
	// at the head of every cycle, its world discarded: the host's busy
	// spells last seconds, and set-ups made back to back would all fall
	// inside one.
	var e *env
	stages := map[string][]float64{}
	var setupParts [][]time.Duration
	setup := func() (*env, error) {
		made, st, parts, err := r.setup(len(setupParts))
		if err != nil {
			return nil, err
		}
		for name, d := range st {
			stages[name] = append(stages[name], d.Seconds())
		}
		setupParts = append(setupParts, parts)
		return made, nil
	}
	for k := 0; k < sc.SetupReps; k++ {
		e = nil // let the previous world go before building the next
		var err error
		if e, err = setup(); err != nil {
			return runResult{}, err
		}
	}

	sv, err := newServing(e, cfg.Seed, cfg.OutDir)
	if err != nil {
		return runResult{}, err
	}
	defer sv.close()

	window := time.Duration(cfg.Seconds * float64(time.Second))
	cs := &censusStats{}
	if err := r.seedCensus(e, sv, cs); err != nil {
		return runResult{}, err
	}
	ts, err := r.newTraffic(e, sv, cs.seed.findings)
	if err != nil {
		return runResult{}, err
	}
	if cfg.Trace {
		cs.peak = startHeapPeak()
	}
	censusBurst := time.Duration(float64(sc.Cycle) * w.CensusShare)
	serveBurst := max((sc.Cycle-censusBurst)/2, sc.Window)
	var longest time.Duration // cycle so far
	for cycle := 0; cycle == 0 || time.Since(windowStart)+longest <= window; cycle++ {
		cycleStart := time.Now()
		if cycle > 0 {
			if _, err := setup(); err != nil {
				return runResult{}, err
			}
		}
		if err := r.censusBurst(e, sv, cs, censusBurst); err != nil {
			return runResult{}, err
		}
		if err := r.serveBurst(e, sv, ts, cycle, serveBurst); err != nil {
			return runResult{}, err
		}
		longest = max(longest, time.Since(cycleStart))
	}
	if cs.peak != nil {
		cs.peakHeap = cs.peak.close()
	}
	last := &cs.reps[len(cs.reps)-1]
	last.combined, last.outcomes = nil, nil

	n := len(cs.reps)
	all := make([]*repResult, n)
	for i := range cs.reps {
		all[i] = &cs.reps[i]
	}
	r.set("setup_s", leastSum(setupParts).Seconds(), len(setupParts))
	rep, rounds := undisturbed(all)
	r.set("census_to_answer_s", rep.Seconds(), n)
	r.set("census_probes_per_s", float64(last.probes)/rounds.Seconds(), n)
	r.set("census_live_heap_mib", cs.seed.heapMiB, 1)
	r.set("dns_qps", slices.Max(ts.satRate), len(ts.satRate))
	r.set("http_qps", slices.Max(ts.webRate), len(ts.webRate))

	// Fleet only: the same census in one process and fault-free must fold
	// the same matrix; its probing wall is the overhead baseline.
	var reference *repResult
	if w.Fleet {
		ref, err := r.referenceRounds(e)
		if err != nil {
			return runResult{}, fmt.Errorf("reference census: %w", err)
		}
		if ref.matrixSum != last.matrixSum {
			r.failf("fleet matrix %016x differs from the one-process fault-free census %016x", last.matrixSum, ref.matrixSum)
		}
		reference = &ref
	}

	if cfg.Trace {
		if err := r.tracedPhases(e, sv, ts); err != nil {
			return runResult{}, err
		}
		if err := r.layers(layerInputs{e: e, sv: sv, stages: stages, census: cs, traffic: ts, reference: reference}); err != nil {
			return runResult{}, err
		}
		if err := writeChromeTrace(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json"), r.tr.snapshot()); err != nil {
			return runResult{}, err
		}
	}

	return runResult{
		Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace, Metrics: r.m,
		Ops: r.ops, OpsFailed: r.failed, Correct: r.failed == 0,
		Checksum:       fmt.Sprintf("%016x", last.checksum),
		MatrixChecksum: fmt.Sprintf("%016x", last.matrixSum),
		Failures:       r.failures,
	}, nil
}

// censusStats is the census side of a run: the seed rep, the timed reps
// and the process accounting over the timed ones.
type censusStats struct {
	seed repResult // the census of every target, run once
	reps []repResult
	wall time.Duration // of the timed reps

	cpuS            float64 // user+sys core-seconds
	cpuTotal, cpuGC float64 // the runtime's own CPU accounting
	gcCycles        uint32
	peak            *heapPeak // traced runs only
	peakHeap        uint64
}

// seedCensus runs the census of every target once. It warms the process
// (heap growth, page faults on the first slabs), is checked at scale, gives
// the live heap, and leaves its snapshot in a file of its own for the
// serving bursts to publish.
func (r *run) seedCensus(e *env, sv *serving, cs *censusStats) error {
	var err error
	if cs.seed, err = r.rep(e, sv, e.targets, 0, false); err != nil {
		return fmt.Errorf("seed census: %w", err)
	}
	r.checkRep(e, e.targets.Len(), &cs.seed, nil)
	if !r.cfg.Trace {
		// Only the traced run's microloops read the seed's matrix.
		cs.seed.combined, cs.seed.outcomes = nil, nil
	}
	snap := store.NewSnapshot(cs.seed.findings, e.world.Registry, uint64(r.w.Rounds), r.w.Rounds)
	snap.SetHealth(cs.seed.health)
	return store.SaveSnapshotFile(sv.seedPath, snap)
}

// censusBurst runs census_to_answer reps of the sampled census for dur.
// The timings a run reports are an undisturbed rep's: on this host a stage
// is slowed by whoever shares the core during it and never sped up, so the
// least over a few hundred reps is the one number that repeats (README,
// "Noise"). On a traced run every other rep records spans, and the gap
// between the two kinds is the tracing overhead.
func (r *run) censusBurst(e *env, sv *serving, cs *censusStats, dur time.Duration) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpuTotal0, cpuGC0 := cpuClock()
	cpu0 := processCPU()
	start := time.Now()
	for time.Since(start) < dur || len(cs.reps) < r.cfg.Scale.MinReps {
		i := len(cs.reps) + 1
		rr, err := r.rep(e, sv, e.sample, i, r.cfg.Trace && i%2 == 1)
		if err != nil {
			return fmt.Errorf("rep %d: %w", i, err)
		}
		var first *repResult
		if n := len(cs.reps); n > 0 {
			first = &cs.reps[0]
			cs.reps[n-1].combined, cs.reps[n-1].outcomes = nil, nil // only the last rep's are used
		}
		r.checkRep(e, e.sample.Len(), &rr, first)
		cs.reps = append(cs.reps, rr)
	}
	cs.wall += time.Since(start)
	cs.cpuS += (processCPU() - cpu0).Seconds()
	cpuTotal1, cpuGC1 := cpuClock()
	runtime.ReadMemStats(&ms1)
	cs.cpuTotal += cpuTotal1 - cpuTotal0
	cs.cpuGC += cpuGC1 - cpuGC0
	cs.gcCycles += ms1.NumGC - ms0.NumGC
	return nil
}

// trafficStats is the serving side of a run: the tables the generators
// draw from and what the phases observed.
type trafficStats struct {
	qt *questionTable
	lt *lookupTable

	findings         []analysis.Finding // what is served: the seed census's
	satRate, webRate []float64          // every burst's windows: DNS saturation, pipelined HTTP
	rtt, webRTT      loadResult         // traced runs: one query, one request outstanding
	open             openResult         // traced runs: the open loop
	pub              *publisher         // nil on a workload that does not republish
	firstServed      uint64             // the version the first burst started on
	hits, misses     uint64             // the store's LRU over the HTTP bursts
}

func (r *run) newTraffic(e *env, sv *serving, findings []analysis.Finding) (*trafficStats, error) {
	w, seed := r.w, r.cfg.Seed
	ts := &trafficStats{findings: findings, firstServed: sv.pubs.latest.Load()}
	services := make([]netsim.Prefix24, len(findings))
	for i, f := range findings {
		services[i] = f.Prefix
	}
	var err error
	if ts.qt, err = buildQuestions(w.Questions, w.Clients, w.Services, services, seed); err != nil {
		return nil, err
	}
	ts.lt = buildLookups(w.LookupIPs, services, e.targets.Targets(), seed)
	if w.PublishEvery > 0 {
		ts.pub = &publisher{}
	}
	return ts, nil
}

// serve puts the seed census's snapshot back in place of the last sampled
// one, starts the publisher if the workload has one, runs f and stops the
// publisher.
func (r *run) serve(e *env, sv *serving, ts *trafficStats, f func()) error {
	mapped, err := store.OpenSnapshotFile(sv.seedPath)
	if err != nil {
		return err
	}
	if _, err := sv.publish(mapped); err != nil {
		return err
	}
	if ts.pub != nil {
		ts.pub.start(sv, e, ts.findings, r.w.Rounds, r.w.PublishEvery, r.tr)
	}
	f()
	if ts.pub != nil {
		ts.pub.close()
		if ts.pub.err != nil {
			return fmt.Errorf("publisher: %w", ts.pub.err)
		}
	}
	return nil
}

// serveBurst drives traffic at the seed census's snapshot: DNS saturation,
// then pipelined HTTP, each for phase, every answer checked. The rates a
// run reports are the best window's of all bursts, for the reason the
// census reports an undisturbed rep.
func (r *run) serveBurst(e *env, sv *serving, ts *trafficStats, cycle int, phase time.Duration) error {
	w, seed := r.w, r.cfg.Seed+uint64(cycle)*16
	shape := loadShape{dur: phase, window: r.cfg.Scale.Window}
	return r.serve(e, sv, ts, func() {
		r.tr.call("phase.dns_sat", -1, cycle, func() {
			sat := dnsClosedLoop(sv.dns.Addr().String(), ts.qt, satConns, satWindow, w.Zipf, seed+1, shape, sv.pubs)
			ts.satRate = append(ts.satRate, sat.done.perSecond()...)
			r.checkPhase(sv, ts, "dns sat", &sat)
		})
		cache0 := sv.st.Stats()
		r.tr.call("phase.http", -1, cycle, func() {
			web := httpClosedLoop(sv.httpLn.Addr().String(), ts.lt, httpConns, httpWindow, w.Zipf, seed+2, shape)
			ts.webRate = append(ts.webRate, web.done.perSecond()...)
			r.checkPhase(sv, ts, "http", &web)
		})
		cache1 := sv.st.Stats()
		ts.hits += cache1.CacheHits - cache0.CacheHits
		ts.misses += cache1.Misses - cache0.Misses
	})
}

// tracedPhases are the traced run's own: round trips with one outstanding
// (DNS, then HTTP) and the open loop.
func (r *run) tracedPhases(e *env, sv *serving, ts *trafficStats) error {
	w, sc, seed := r.w, r.cfg.Scale, r.cfg.Seed
	roundTrips := loadShape{dur: sc.RoundTrips, window: sc.RoundTrips, keepLatencies: true}
	var openErr error
	err := r.serve(e, sv, ts, func() {
		r.tr.call("phase.dns_rtt", -1, 0, func() {
			ts.rtt = dnsClosedLoop(sv.dns.Addr().String(), ts.qt, 1, 1, w.Zipf, seed+3, roundTrips, sv.pubs)
			r.checkPhase(sv, ts, "dns rtt", &ts.rtt)
		})
		r.tr.call("phase.http_rtt", -1, 0, func() {
			ts.webRTT = httpClosedLoop(sv.httpLn.Addr().String(), ts.lt, 1, 1, w.Zipf, seed+4, roundTrips)
			r.checkPhase(sv, ts, "http rtt", &ts.webRTT)
		})
		r.tr.call("phase.dns_open", -1, 0, func() {
			// The open loop never parks, so it needs a processor of its own.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
			ts.open, openErr = dnsOpenLoop(sv.dns.Addr().String(), ts.qt, openLoopRate, w.Zipf, seed+5, sc.OpenLoop)
		})
	})
	if err != nil {
		return err
	}
	return openErr
}

// checkPhase accounts one closed-loop phase's ops and replays its sampled
// A answers through the engine.
func (r *run) checkPhase(sv *serving, ts *trafficStats, name string, res *loadResult) {
	r.ops += res.sent
	r.failed += res.failed
	if res.failed > 0 {
		r.notef("%s phase: %d of %d failed, first: %s", name, res.failed, res.sent, res.firstErr)
	}
	if res.maxVersion > sv.pubs.latest.Load() {
		r.failf("%s phase: an answer carried version %d, the newest published is %d", name, res.maxVersion, sv.pubs.latest.Load())
	}
	for _, c := range res.checks {
		r.ops++
		if ans, _ := sv.eng.DecideFor(ts.qt.client[c.question], ts.qt.service[c.question], route.PolicyNone); ans.Addr != c.addr {
			r.failf("%s phase: question %d answered %v, Engine.DecideFor says %v", name, c.question, c.addr, ans.Addr)
		}
	}
}

// referenceRounds probes the workload's rounds in one process with no
// fault plan and returns the folded matrix's digest and probing wall.
func (r *run) referenceRounds(e *env) (repResult, error) {
	var rr repResult
	cp := census.NewCampaign(census.CampaignConfig{Census: census.Config{Seed: r.cfg.Seed}})
	for ri, vps := range e.rounds {
		t0 := time.Now()
		if _, err := cp.ExecuteRoundPipelined(context.Background(), e.world, vps, e.sample, e.black, uint64(ri+1), census.PipelineConfig{}); err != nil {
			return rr, err
		}
		rr.rounds = append(rr.rounds, time.Since(t0))
	}
	rr.matrixSum, _ = checksum(cp.Combined(), cp.Greylist(), nil)
	return rr, nil
}
