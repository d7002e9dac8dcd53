package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"slices"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/prober"
	"anycastmap/internal/record"
	"anycastmap/internal/route"
	"anycastmap/internal/store"
)

// layers.go — the per-layer ledger of a traced run. Three sources feed
// it: the spans the harness recorded around each layer call, counters the
// layers export (campaign health, coordinator and store stats), and
// microloops that time one public call in isolation. Microloops run after
// the measured window, on the data the workload produced: span walls come
// from the timed reps of the sampled census, as the best rep's like the
// end-to-end timings; the microloops that need a matrix, a target list or
// a snapshot take the seed census's, which have a full census's shape.

// layerInputs is what the measured window hands to the ledger.
type layerInputs struct {
	e         *env
	sv        *serving
	stages    map[string][]float64
	census    *censusStats
	traffic   *trafficStats
	reference *repResult // fleet only: the one-process fault-free rounds
}

// sink keeps microloop results alive so the compiler cannot drop the
// calls that produce them.
var sink any

// perOp calls f in batches until budget has elapsed and returns the mean
// nanoseconds per call.
func perOp(budget time.Duration, batch int, f func(i int)) float64 {
	n := 0
	start := time.Now()
	for {
		for k := 0; k < batch; k++ {
			f(n)
			n++
		}
		if el := time.Since(start); el >= budget {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ledger is the state the per-layer sections share.
type ledger struct {
	*run
	in      layerInputs
	e       *env
	sv      *serving
	tf      *trafficStats
	seed    *repResult // the census of every target
	reps    []repResult
	traced  []*repResult // the timed reps that recorded spans
	plain   []*repResult // and those that did not
	last    *repResult
	targets []netsim.IP   // every target, for the microloops
	sampled int           // how many of them a timed rep censuses
	budget  time.Duration // of one microloop
}

// over maps f over reps.
func over(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, rr := range reps {
		out[i] = f(rr)
	}
	return out
}

// fromSpans sets a metric to the least over the traced reps of a span's
// wall, in seconds times scale.
func (l *ledger) fromSpans(name string, f func(*repResult) time.Duration, scale float64) {
	l.set(name, slices.Min(over(l.traced, func(rr *repResult) float64 { return f(rr).Seconds() * scale })), len(l.traced))
}

// layers fills every per-layer metric.
func (r *run) layers(in layerInputs) error {
	reps := in.census.reps
	l := &ledger{
		run: r, in: in, e: in.e, sv: in.sv, tf: in.traffic, seed: &in.census.seed, reps: reps,
		last: &reps[len(reps)-1], targets: in.e.targets.Targets(), sampled: in.e.sample.Len(), budget: r.cfg.Scale.Micro,
	}
	for i := range reps {
		if reps[i].traced {
			l.traced = append(l.traced, &reps[i])
		} else {
			l.plain = append(l.plain, &reps[i])
		}
	}
	for _, section := range []func() error{l.setupAndProbing, l.census, l.analysis, l.cluster, l.store, l.route, l.loadgenAndRuntime} {
		if err := section(); err != nil {
			return err
		}
	}
	l.computedSpans()
	return nil
}

// setupAndProbing: the set-up stages, then netsim and prober on one
// vantage point over one probe span.
func (l *ledger) setupAndProbing() error {
	r, e, targets, budget, last, reps := l.run, l.e, l.targets, l.budget, l.last, l.reps
	in := l.in
	// Set-up stages.
	for metric, stage := range map[string]string{
		"netsim.world_build_s": "netsim.New", "bgp.table_build_s": "bgp.FromWorld", "hitlist.build_s": "hitlist.FromWorld",
		"prober.blacklist_s": "prober.BuildBlacklist", "hitlist.prune_s": "hitlist.Prune",
	} {
		r.set(metric, median(in.stages[stage]), len(in.stages[stage]))
	}

	// netsim and prober: one vantage point over one probe span.
	vps := e.rounds[0]
	probeSpan := targets[:min(len(targets), census.PipelineConfig{}.EffectiveSpanTargets())]
	r.set("netsim.span_session_ns_per_target", perOp(budget, 1, func(i int) {
		sink = e.world.ProbeSpanSession(vps[i%len(vps)], probeSpan)
	})/float64(len(probeSpan)), 1)
	ss := e.world.ProbeSpanSession(vps[0], probeSpan)
	var reply netsim.Reply
	r.set("netsim.probe_ns", perOp(budget, 1024, func(i int) { reply = ss.ICMP(i%len(probeSpan), 1) }), 1)
	sink = reply

	pcfg := prober.Config{Seed: r.cfg.Seed, Round: 1}
	discard := func(int, record.Sample) {}
	sent := 0
	m0 := mallocs()
	var runErr error
	perRun := perOp(budget, 1, func(int) {
		st, _, err := prober.RunIndexed(e.world, vps[0], targets, e.black, pcfg, discard)
		sent += st.Sent
		if err != nil {
			runErr = err
		}
	})
	m1 := mallocs()
	if runErr != nil || sent == 0 {
		return fmt.Errorf("prober microloop: sent %d, err %v", sent, runErr)
	}
	r.set("prober.run_ns_per_probe", perRun/float64(len(targets)), 1)
	r.set("prober.allocs_per_probe", float64(m1-m0)/float64(sent), 1)
	r.set("prober.probes", float64(last.probes), len(reps))

	return nil
}

// census: rounds and analysis walls from the spans, fold and codec from a
// small whole-round run.
func (l *ledger) census() error {
	r, e, targets, budget, last, traced := l.run, l.e, l.targets, l.budget, l.last, l.traced
	vps := e.rounds[0]
	var roundWalls []float64
	for _, rr := range traced {
		roundWalls = append(roundWalls, asUnit(time.Second, rr.rounds)...)
	}
	r.set("census.round_wall_s", slices.Min(roundWalls), len(roundWalls))
	l.fromSpans("census.probe_phase_s", (*repResult).probePhase, 1)
	l.fromSpans("census.analyze_s", func(rr *repResult) time.Duration { return rr.analyze }, 1)
	l.fromSpans("census.analyze_us_per_target", func(rr *repResult) time.Duration { return rr.analyze }, 1e6/float64(l.sampled))
	l.fromSpans("analysis.attribute_s", func(rr *repResult) time.Duration { return rr.attribute }, 1)
	r.set("census.unattributed_share", median(over(traced, func(rr *repResult) float64 {
		return 1 - rr.children().Seconds()/rr.wall.Seconds()
	})), len(traced))
	r.set("census.vp_retries", float64(last.health.Retries), 1)
	r.set("census.vp_quarantined", float64(len(last.health.Quarantined)), 1)
	cells := 0
	for _, row := range l.seed.combined.RTTus {
		cells += len(row)
	}
	r.set("census.combined_bytes_per_target", 4*float64(cells)/float64(len(targets)), 1)

	foldVPs := vps[:min(len(vps), 16)]
	whole, err := census.ExecuteContext(context.Background(), e.world, foldVPs, e.targets, e.black, 1, census.Config{Seed: r.cfg.Seed})
	if err != nil {
		return fmt.Errorf("whole-round run for the fold microloop: %w", err)
	}
	samples := 0
	for _, row := range whole.RTTus {
		for _, v := range row {
			if v >= 0 {
				samples++
			}
		}
	}
	var foldErr error
	r.set("census.fold_ns_per_cell", perOp(budget, 1, func(int) {
		cp := census.NewCampaign(census.CampaignConfig{})
		if err := cp.FoldRun(whole); err != nil {
			foldErr = err
		}
	})/float64(len(foldVPs)*len(targets)), 1)
	if foldErr != nil {
		return foldErr
	}
	var enc bytes.Buffer
	var codecErr error
	r.set("census.run_encode_ns_per_sample", perOp(budget, 1, func(int) {
		enc.Reset()
		if err := census.SaveRun(&enc, whole); err != nil {
			codecErr = err
		}
	})/float64(samples), 1)
	r.set("census.run_decode_ns_per_sample", perOp(budget, 1, func(int) {
		if _, err := census.LoadRun(bytes.NewReader(enc.Bytes())); err != nil {
			codecErr = err
		}
	})/float64(samples), 1)
	if codecErr != nil {
		return codecErr
	}

	return nil
}

// analysis: the incremental analyzer and core's per-target analysis, on
// the seed census's matrix.
func (l *ledger) analysis() error {
	r, e, targets, budget, last := l.run, l.e, l.targets, l.budget, l.seed
	// The incremental analyzer: prime it on the final matrix, then time a
	// second pass over the same targets, which revalidates certificates
	// instead of scanning.
	all := make([]int, len(targets))
	for i := range all {
		all[i] = i
	}
	an := census.NewAnalyzer(e.db, census.AnalyzerConfig{})
	an.Update(last.combined, all)
	s0 := an.Stats()
	t0 := time.Now()
	an.Update(last.combined, all)
	r.set("census.analyzer_update_s", time.Since(t0).Seconds(), 1)
	s1 := an.Stats()
	r.set("census.cert_hit_ratio", float64(s1.CertHits-s0.CertHits)/float64(max(s1.Analyzed-s0.Analyzed, 1)), 1)

	// core: the full per-target analysis, on unicast and anycast targets.
	isAnycast := make(map[netsim.IP]bool, len(last.outcomes))
	for _, o := range last.outcomes {
		isAnycast[o.Target] = true
	}
	// As census.AnalyzeAll does, hand the analysis the vantage points'
	// pairwise distances instead of letting it recompute them per target.
	c := last.combined
	nVP := len(c.VPs)
	vpDist := make([]float64, nVP*nVP)
	for a := 0; a < nVP; a++ {
		for b := a + 1; b < nVP; b++ {
			d := geo.DistanceKm(c.VPs[a].Loc, c.VPs[b].Loc)
			vpDist[a*nVP+b], vpDist[b*nVP+a] = d, d
		}
	}
	type target struct {
		ms    []core.Measurement
		vpIdx []int
	}
	var uni, any []target
	for t, ip := range targets {
		ms, vpIdx := c.AppendMeasurements(t, nil, nil)
		if len(ms) < 2 {
			continue
		}
		if isAnycast[ip] && len(any) < 64 {
			any = append(any, target{ms, vpIdx})
		} else if !isAnycast[ip] && len(uni) < 64 {
			uni = append(uni, target{ms, vpIdx})
		}
		if len(any) == 64 && len(uni) == 64 {
			break
		}
	}
	if len(uni) == 0 || len(any) == 0 {
		return fmt.Errorf("core microloop: %d unicast and %d anycast targets with samples", len(uni), len(any))
	}
	idx := cities.NewIndex(e.db, 10)
	var res core.Result
	analyze := func(ts []target) float64 {
		return perOp(budget, 1, func(i int) {
			t := ts[i%len(ts)]
			res = core.AnalyzeWithDist(idx, t.ms, func(a, b int) float64 { return vpDist[t.vpIdx[a]*nVP+t.vpIdx[b]] }, core.Options{})
		}) / 1e3
	}
	r.set("core.analyze_unicast_us", analyze(uni), 1)
	r.set("core.analyze_anycast_us", analyze(any), 1)
	sink = res
	return nil
}

// cluster: the coordinator's counters and the fleet's overhead; zero on
// workloads that run no fleet.
func (l *ledger) cluster() error {
	r, in, last := l.run, l.in, l.last
	if r.w.Fleet {
		r.set("cluster.round_wall_s", r.m["census.round_wall_s"].Value, r.m["census.round_wall_s"].N)
		r.set("cluster.leases", float64(last.fleet.Leases), 1)
		r.set("cluster.releases", float64(last.fleet.ReLeases), 1)
		r.set("cluster.frames_folded", float64(last.fleet.FramesFolded), 1)
		r.set("cluster.coord_live_heap_mib", l.seed.heapMiB, 1)
		r.set("cluster.overhead_ratio", r.m["census.probe_phase_s"].Value/in.reference.probePhase().Seconds(), 1)
	} else {
		for _, name := range []string{"cluster.round_wall_s", "cluster.leases", "cluster.releases", "cluster.frames_folded", "cluster.coord_live_heap_mib", "cluster.overhead_ratio"} {
			r.set(name, 0, 0)
		}
	}

	return nil
}

// store: snapshot lifecycle of the seed census's snapshot (the seed rep
// and the publisher, which rebuilds the same one), publish-to-answer from
// every publish, lookups from microloops.
func (l *ledger) store() error {
	r, e, sv, tf, budget, last, traced := l.run, l.e, l.sv, l.tf, l.budget, l.seed, l.traced
	w := r.w
	build, save, open, publish := []time.Duration{last.build}, []time.Duration{last.save}, []time.Duration{last.open}, []time.Duration{last.publish}
	toAnswer := over(traced, func(rr *repResult) float64 { return float64(rr.publish+rr.firstAns) / float64(time.Millisecond) })
	if pub := tf.pub; pub != nil {
		build, save, open, publish = append(build, pub.build...), append(save, pub.save...), append(open, pub.open...), append(publish, pub.publish...)
		toAnswer = append(toAnswer, asUnit(time.Millisecond, sv.pubs.answerTimes(tf.firstServed+1, sv.pubs.latest.Load()))...)
	}
	r.set("store.snapshot_build_ms", median(asUnit(time.Millisecond, build)), len(build))
	r.set("store.snapshot_save_ms", median(asUnit(time.Millisecond, save)), len(save))
	r.set("store.snapshot_open_ms", median(asUnit(time.Millisecond, open)), len(open))
	r.set("store.publish_us", median(asUnit(time.Microsecond, publish)), len(publish))
	r.set("store.publish_to_answer_ms", median(toAnswer), len(toAnswer))
	r.set("store.cache_hit_ratio", float64(tf.hits)/float64(max(tf.hits+tf.misses, 1)), 1)

	ips := tf.lt.ips
	heap := store.NewSnapshot(last.findings, e.world.Registry, uint64(w.Rounds), w.Rounds)
	var entry *store.Entry
	r.set("store.lookup_ns", perOp(budget, 1024, func(i int) { entry, _ = heap.Lookup(ips[i%len(ips)]) }), 1)
	mapped, err := store.OpenSnapshotFile(sv.seedPath)
	if err != nil {
		return err
	}
	r.set("store.mapped_lookup_ns", perOp(budget, 1024, func(i int) { entry, _ = mapped.Lookup(ips[i%len(ips)]) }), 1)
	mapped.Close()
	sink = entry
	// A store of its own, so the serving store's counters stay the
	// HTTP phase's. Hits cycle a few hot addresses; misses walk more
	// distinct addresses than the LRU holds.
	side := store.New(store.Options{})
	side.Publish(heap)
	hot := ips[:min(len(ips), 1024)]
	var ans store.Answer
	r.set("store.cache_hit_ns", perOp(budget, 1024, func(i int) { ans = side.Lookup(hot[i%len(hot)]) }), 1)
	r.set("store.cache_miss_ns", perOp(budget, 1024, func(i int) {
		ans = side.Lookup(ips[i%len(ips)].Prefix().Host(byte(1 + (i/len(ips))%254)))
	}), 1)
	sink = ans
	reqs := make([]*http.Request, min(len(ips), 256))
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/v1/lookup?ip="+ips[i].String(), nil)
	}
	r.set("store.api_lookup_us", perOp(budget, 16, func(i int) {
		sv.api.ServeHTTP(httptest.NewRecorder(), reqs[i%len(reqs)])
	})/1e3, 1)

	return nil
}

// route: the answer path's stages, then the whole of it on the workload's
// own question mix, then what the round-trip and open-loop phases saw.
func (l *ledger) route() error {
	r, sv, tf, budget := l.run, l.sv, l.tf, l.budget
	w := r.w
	qt := tf.qt
	scr := &route.Scratch{}
	var rcode int
	r.set("route.decode_ns", perOp(budget, 1024, func(i int) { rcode, _ = route.DecodeQuery(scr, qt.packet(i%qt.len()), sv.zone) }), 1)
	sink = rcode
	hotQ := min(qt.len(), 256)
	var dec route.Answer
	r.set("route.decide_hit_ns", perOp(budget, 1024, func(i int) {
		dec, _ = sv.eng.DecideForCached(scr, qt.client[i%hotQ], qt.service[i%hotQ], route.PolicyNone)
	}), 1)
	r.set("route.decide_miss_ns", perOp(budget, 1024, func(i int) {
		dec, _ = sv.eng.DecideFor(qt.client[i%qt.len()], qt.service[i%qt.len()], route.PolicyNone)
	}), 1)
	route.DecodeQuery(scr, qt.packet(0), sv.zone)
	dec, policy := sv.eng.DecideFor(qt.client[0], qt.service[0], route.PolicyNone)
	var pkt []byte
	r.set("route.encode_ns", perOp(budget, 1024, func(int) { pkt = route.EncodeAnswer(scr, &dec, policy, 30) }), 1)
	responder, err := route.NewResponder(sv.eng, "", 30, nil)
	if err != nil {
		return err
	}
	pick := newPicker(r.cfg.Seed+5, qt.len(), w.Zipf)
	draws := make([]int32, 1<<16)
	for i := range draws {
		draws[i] = int32(pick.next())
	}
	src := netip.MustParseAddrPort("127.0.0.1:5353")
	m0 := mallocs()
	n := 0
	respondNs := perOp(budget, 1024, func(i int) {
		pkt = responder.Respond(scr, qt.packet(int(draws[i%len(draws)])), src)
		n++
	})
	m1 := mallocs()
	sink = pkt
	r.set("route.respond_ns", respondNs, 1)
	r.set("route.respond_allocs", float64(m1-m0)/float64(n), 1)
	// Round trips with one outstanding. These were end-to-end gates in
	// the issue; on a two-core VM their medians flip between 5.2 and
	// 7.5 us with where the scheduler puts the two goroutines, run to
	// run and window to window, so they are reported here instead.
	rttUs, webUs := asUnit(time.Microsecond, tf.rtt.latencies), asUnit(time.Microsecond, tf.webRTT.latencies)
	r.set("dns_rtt_p50_us", percentile(rttUs, 50), len(rttUs))
	r.set("http_rtt_p50_us", percentile(webUs, 50), len(webUs))
	r.set("route.socket_share", 1-respondNs/1e3/r.m["dns_rtt_p50_us"].Value, 1)
	r.set("route.rtt_p99_us", percentile(rttUs, 99), len(rttUs))
	r.set("route.rtt_p999_us", percentile(rttUs, 99.9), len(rttUs))
	r.set("route.open_p50_us", percentile(tf.open.latUs, 50), len(tf.open.latUs))
	r.set("route.open_p99_us", percentile(tf.open.latUs, 99), len(tf.open.latUs))
	r.set("route.open_loss_ratio", 1-float64(tf.open.received)/float64(max(tf.open.sent, 1)), tf.open.sent)

	return nil
}

// loadgenAndRuntime: how late the open loop ran, what the closed loop can
// offer to a server that does nothing, and the process accounting over the
// census reps.
func (l *ledger) loadgenAndRuntime() error {
	r, in, tf, traced, untraced := l.run, l.in, l.tf, l.traced, l.plain
	sc := r.cfg.Scale
	r.set("loadgen.open_late_p50_us", percentile(tf.open.lateUs, 50), len(tf.open.lateUs))
	r.set("loadgen.open_late_max_us", percentile(tf.open.lateUs, 100), len(tf.open.lateUs))
	ceiling, err := echoCeiling(tf.qt, satConns, satWindow, r.cfg.Seed+6, sc.Ceiling)
	if err != nil {
		return err
	}
	r.set("loadgen.ceiling_qps", ceiling, 1)

	// runtime, over the census reps.
	r.set("runtime.gc_cycles", float64(in.census.gcCycles), 1)
	// The runtime refreshes its CPU classes when a collection ends; bursts
	// without one (smoke runs) saw no time pass.
	gcShare := 0.0
	if in.census.cpuTotal > 0 {
		gcShare = in.census.cpuGC / in.census.cpuTotal
	}
	r.set("runtime.gc_cpu_share", gcShare, 1)
	r.set("runtime.peak_heap_mib", float64(in.census.peakHeap)/(1<<20), 1)
	r.set("runtime.cpu_over_wall", in.census.cpuS/in.census.wall.Seconds(), 1)
	cpu := make([]float64, len(l.reps))
	for i := range l.reps {
		cpu[i] = l.reps[i].cpuS
	}
	r.set("census_cpu_s", slices.Min(cpu), len(cpu))
	overhead := 0.0
	if len(untraced) > 0 {
		with, _ := undisturbed(traced)
		without, _ := undisturbed(untraced)
		overhead = with.Seconds()/without.Seconds() - 1
	}
	r.set("trace_overhead_ratio", overhead, len(traced))

	return nil
}

// computedSpans gives every traced round its probe and fold children.
// Inside a pipelined round probing and folding overlap, so their split
// cannot be observed from outside; it is computed from the unit costs
// measured above times the round's counts, and labelled so.
func (l *ledger) computedSpans() {
	r, e, traced := l.run, l.e, l.traced
	probeNs, foldNs := r.m["prober.run_ns_per_probe"].Value, r.m["census.fold_ns_per_cell"].Value
	workers := float64(runtime.GOMAXPROCS(0))
	for _, rr := range traced {
		for ri, id := range rr.roundSpans {
			if id < 0 {
				continue
			}
			cells := float64(len(e.rounds[ri]) * l.sampled)
			round := r.tr.spans[id]
			probeEnd := min(round.Start+time.Duration(cells*probeNs/workers), round.End)
			foldEnd := min(probeEnd+time.Duration(cells*foldNs/workers), round.End)
			r.tr.add(span{Name: "prober.RunIndexed", Start: round.Start, End: probeEnd, Parent: id, Rep: round.Rep, Computed: true})
			r.tr.add(span{Name: "census.FoldShard", Start: probeEnd, End: foldEnd, Parent: id, Rep: round.Rep, Computed: true})
		}
	}
}
