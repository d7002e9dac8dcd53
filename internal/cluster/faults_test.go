package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
)

// The agent-loss acceptance test of ISSUE 6: a deterministic crash plan
// kills well over 20% of the fleet mid-census (each injected VP crash
// takes its whole agent down, ExitOnCrash), the harness respawns them,
// the coordinator re-leases the lost shards — and the final combined
// matrix, greylist, and analysis outcomes are byte-identical to a
// zero-fault single-process run.
//
// The identity is not luck: netsim reply draws are pure functions of
// (seed, VP, target, round) — crash faults abort runs early but never
// change a draw — and a non-sticky crashed VP recovers at attempt 1, so
// every re-leased shard reproduces exactly the samples the zero-fault
// run would have had. (Flap/burst faults do NOT have this property:
// their loss windows depend on the run length, which sharding changes.)
func TestAgentLossReLease(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)

	// Reference: zero faults, single process.
	ref := singleProcessReference(t, w, h, vps)

	fcfg := netsim.FaultConfig{Seed: 77, CrashFraction: 0.3}
	plan, err := netsim.NewFaultPlan(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count the crash events the plan schedules: one agent death each.
	planned := 0
	for r, set := range vps {
		for _, vp := range set {
			if crashes, sticky := plan.Crashes(vp.ID, uint64(r+1)); crashes {
				if sticky {
					t.Fatal("plan scheduled a sticky crash; stickiness must be 0")
				}
				planned++
			}
		}
	}
	const agents = 5
	if planned < (agents+4)/5 { // ceil(20%)
		t.Fatalf("crash plan only kills %d agents; raise CrashFraction", planned)
	}

	faulty := w.WithFaults(plan)
	cp, stats, deaths := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       testCensusCfg(),
			World:        cfg,
			Faults:       &fcfg,
			ShardTargets: 500,
			Tick:         5 * time.Millisecond,
		},
		HarnessConfig{
			Agents:  agents,
			Agent:   AgentConfig{World: faulty, Capacity: 1, ExitOnCrash: true},
			Respawn: true,
		},
		vps)

	if deaths != planned {
		t.Fatalf("%d agent deaths, crash plan scheduled %d", deaths, planned)
	}
	if stats.AgentsLost < planned {
		t.Fatalf("coordinator lost %d agents for %d crashes", stats.AgentsLost, planned)
	}
	if stats.ReLeases == 0 {
		t.Fatal("no shards were re-leased after agent loss")
	}
	ch := cp.Health()
	if ch.Retries == 0 || ch.Recovered != planned {
		t.Fatalf("health: retries=%d recovered=%d, want recovered=%d", ch.Retries, ch.Recovered, planned)
	}
	if len(ch.Quarantined) != 0 {
		t.Fatalf("recoverable crashes quarantined VPs: %v", ch.Quarantined)
	}

	assertIdentical(t, ref, cp)

	t.Run("mid-batch", agentLossMidBatch)
}

// agentLossMidBatch loses an agent halfway through a lease of five units.
// The victim, a scripted agent, reports one unit's crash, folds a second,
// then repeats that second unit — which drops it — in the same write as a
// third unit's rows. Every unit it had not reported when it was dropped,
// the third included, is leased again exactly once, to the fleet that
// replaces it; the third's rows, read after the drop, count as a late
// frame and fold nothing; and the census comes out as the fault-free
// in-process one. The frames are small enough to reach the coordinator in
// one read, so the late one is read before the drop closes the connection.
func agentLossMidBatch(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	const span, units = 40, 5
	drop := make(map[netsim.IP]bool, h.Len())
	for _, ip := range h.Targets()[span:] {
		drop[ip] = true
	}
	hl := h.Without(drop)
	ref := singleProcessReference(t, w, hl, vps[:1])

	ccfg := testCensusCfg()
	ccfg.MaxAttempts = 50
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	coord, err := NewCoordinator(Config{
		Campaign: cp, Targets: hl.Targets(), Census: ccfg, World: cfg,
		ShardTargets: units * span,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The victim joins alone, so the round's first lease is its own and
	// carries as many units as fit.
	coordSide, agentSide := net.Pipe()
	if err := coord.Attach(coordSide); err != nil {
		t.Fatal(err)
	}
	defer agentSide.Close()
	agentSide.SetDeadline(time.Now().Add(10 * time.Second))
	agentSide.Write(append([]byte(streamMagic), appendFrame(nil, frameHello, appendHello(nil, &helloMsg{Name: "victim", Capacity: 1}))...))
	fr := newFrameReader(agentSide, 0)
	if err := readMagic(fr.r); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := fr.next(); err != nil || typ != frameWelcome {
		t.Fatalf("victim awaiting welcome: type %d, %v", typ, err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := coord.ExecuteRound(context.Background(), 1, vps[0])
		done <- err
	}()
	typ, payload, err := fr.next()
	if err != nil || typ != frameLease {
		t.Fatalf("victim awaiting its lease: type %d, %v", typ, err)
	}
	l, err := decodeLease(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Units) != units {
		t.Fatalf("victim's lease carries %d units, want %d", len(l.Units), units)
	}
	plans := census.NewSpanPlans(w, hl.Targets(), nil)
	probe := func(u census.Unit) unitRows {
		ur := unitRows{Slot: u.Slot}
		if err := census.ProbeShard(w, plans.Plan(u.Round, u.Span), ccfg, u, &ur.ShardRows); err != nil {
			t.Fatal(err)
		}
		return ur
	}
	folded, late := probe(l.Units[1]), probe(l.Units[2])
	var out []byte
	out = appendFrame(out, frameFail, appendFail(nil, &failMsg{ID: l.ID, Slot: l.Units[0].Slot, Err: "netsim: VP crashed", Crash: true}))
	for _, ur := range []unitRows{folded, folded, late} {
		out = appendRowsFrame(out, l.ID, ur)
	}
	if len(out) > 4096 {
		t.Fatalf("the victim's %d bytes exceed one read of the coordinator's buffer", len(out))
	}
	if _, err := agentSide.Write(out); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); coord.Stats().AgentsLost == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the victim was never dropped")
		}
	}

	recs, wait := recordedFleet(t, coord, 2, AgentConfig{World: w, Capacity: 1})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	coord.Close()
	wait()

	leased := map[int]int{}
	for _, rec := range recs {
		for _, rl := range rec.leases {
			for _, u := range rl.Units {
				leased[u.Slot]++
			}
		}
	}
	for i, u := range l.Units {
		if want := map[bool]int{true: 0, false: 1}[i == 1]; leased[u.Slot] != want {
			t.Errorf("victim's unit %d (slot %d) leased %d times after the loss, want %d", i, u.Slot, leased[u.Slot], want)
		}
	}
	if st.LateFrames != 1 || st.ReLeases != units-1 || st.AgentsLost != 1 || st.Units != len(vps[0])+units-1 {
		t.Fatalf("stats %+v; want 1 late frame, %d re-leases, 1 agent lost, %d units", st, units-1, len(vps[0])+units-1)
	}
	assertIdentical(t, ref, cp)
}

// Same crash weather, but agents report the crash as a retryable lease
// failure instead of dying (ExitOnCrash off): no agent is lost, the
// retry machinery alone recovers, and the result is still identical.
func TestVPCrashWithoutAgentLoss(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps)

	fcfg := netsim.FaultConfig{Seed: 77, CrashFraction: 0.3}
	plan, err := netsim.NewFaultPlan(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, stats, deaths := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       testCensusCfg(),
			World:        cfg,
			Faults:       &fcfg,
			ShardTargets: 500,
			Tick:         5 * time.Millisecond,
		},
		HarnessConfig{
			Agents: 4,
			Agent:  AgentConfig{World: w.WithFaults(plan), Capacity: 2},
		},
		vps)
	if deaths != 0 {
		t.Fatalf("%d agents died with ExitOnCrash off", deaths)
	}
	if stats.AgentsLost != 0 {
		t.Fatalf("coordinator lost %d agents", stats.AgentsLost)
	}
	if stats.ReLeases == 0 {
		t.Fatal("crashed leases were not retried")
	}
	assertIdentical(t, ref, cp)
}

// Sticky crashes exhaust the retry budget: the vantage point must end
// the round quarantined, exactly like the single-process path, and the
// round must still complete for everyone else.
func TestStickyCrashQuarantines(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)

	fcfg := netsim.FaultConfig{Seed: 13, CrashFraction: 0.25, CrashStickiness: 1}
	plan, err := netsim.NewFaultPlan(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, vp := range vps[0] {
		if c, _ := plan.Crashes(vp.ID, 1); c {
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("plan crashed nobody; raise CrashFraction")
	}

	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:     cp,
		Targets:      h.Targets(),
		Census:       testCensusCfg(),
		World:        cfg,
		Faults:       &fcfg,
		ShardTargets: 700,
		Tick:         5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHarness(coord, HarnessConfig{Agents: 3, Agent: AgentConfig{World: w.WithFaults(plan), Capacity: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	_, rerr := coord.ExecuteRound(context.Background(), 1, vps[0])
	if rerr == nil {
		t.Fatal("sticky crashes reported no error")
	}
	h1 := cp.Health()
	if len(h1.Quarantined) != crashed {
		t.Fatalf("quarantined %v, plan crashed %d VPs", h1.Quarantined, crashed)
	}
	if got := cp.Combined(); got == nil || got.Rounds != 1 {
		t.Fatal("round did not fold")
	}
}
