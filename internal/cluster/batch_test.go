package cluster

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/census"
)

// leaseRecorder is the coordinator's end of an agent connection: it
// records every lease written through it (the coordinator writes each
// frame in one Write).
type leaseRecorder struct {
	net.Conn
	mu     sync.Mutex
	leases []leaseMsg
}

func (c *leaseRecorder) Write(b []byte) (int, error) {
	if len(b) > 5 && b[4] == frameLease {
		if l, err := decodeLease(b[5:]); err == nil {
			c.mu.Lock()
			c.leases = append(c.leases, l)
			c.mu.Unlock()
		}
	}
	return c.Conn.Write(b)
}

// recordedFleet attaches n agents over net.Pipe, recording the leases each
// is handed, and returns once all n have joined. The agents run until the
// coordinator closes; wait reaps them after that.
func recordedFleet(t *testing.T, coord *Coordinator, n int, acfg AgentConfig) (recs []*leaseRecorder, wait func()) {
	t.Helper()
	joined := coord.Stats().AgentsJoined
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		coordSide, agentSide := net.Pipe()
		rec := &leaseRecorder{Conn: coordSide}
		if err := coord.Attach(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunAgent(context.Background(), agentSide, acfg)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); coord.Stats().AgentsJoined < joined+n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d agents joined", coord.Stats().AgentsJoined-joined, n)
		}
	}
	return recs, wg.Wait
}

// At paper scale a span is ShardTargets wide, and a lease over it holds
// one unit: on a target list of several spans, every lease the fleet hands
// out holds exactly one, so paper-scale traffic is one lease per unit.
func TestFullWidthLeaseCarriesOneUnit(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	const width = 1000
	if h.Len() < 2*width {
		t.Fatalf("testbed has %d targets, want at least %d", h.Len(), 2*width)
	}
	ref := singleProcessReference(t, w, h, vps)

	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{Campaign: cp, Targets: h.Targets(), Census: testCensusCfg(), World: cfg, ShardTargets: width})
	if err != nil {
		t.Fatal(err)
	}
	recs, wait := recordedFleet(t, coord, 2, AgentConfig{World: w, Capacity: 2})
	for r, set := range vps {
		if _, err := coord.ExecuteRound(context.Background(), uint64(r+1), set); err != nil {
			coord.Close()
			wait()
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	st := coord.Stats()
	coord.Close()
	wait()
	assertIdentical(t, ref, cp)

	full := 0
	for _, rec := range recs {
		for _, l := range rec.leases {
			if len(l.Units) != 1 {
				t.Fatalf("lease %d carries %d units over a target list of %d spans", l.ID, len(l.Units), len(census.ShardSpans(h.Len(), width)))
			}
			if u := l.Units[0]; u.Span.Hi-u.Span.Lo == width {
				full++
			}
		}
	}
	if full == 0 || st.Units != st.Leases {
		t.Fatalf("%d full-width leases; %d leases carried %d units", full, st.Leases, st.Units)
	}
}

// On census-fleet's shape — 2 agents × Capacity 1, 88 targets, 261
// vantage points × 2 rounds, a tenth crashing once and recovering — a
// lease carries a batch of the one narrow span's units. The fleet still
// folds what the in-process executor folds under the same fault plan,
// retries exactly the vantage points that crashed, once each (what one
// unit a lease retried), and never hands an agent more than its half of
// the round's vantage points.
func TestFleetBatchesNarrowSpan(t *testing.T) {
	fleetBed(t)
	ccfg := fleetCensusCfg()
	local := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	for r, vps := range fleetRounds {
		if _, err := local.ExecuteRoundPipelined(context.Background(), fleetWorld, vps, fleetTargets, nil, uint64(r+1), census.PipelineConfig{}); err != nil {
			t.Fatalf("in-process round %d: %v", r+1, err)
		}
	}
	crashed := 0
	for r, vps := range fleetRounds {
		for _, vp := range vps {
			if c, _ := fleetWorld.Faults().Crashes(vp.ID, uint64(r+1)); c {
				crashed++
			}
		}
	}

	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	coord, err := NewCoordinator(Config{
		Campaign: cp, Targets: fleetTargets.Targets(), Census: ccfg,
		World: fleetCfg, Faults: &fleetFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, wait := recordedFleet(t, coord, 2, AgentConfig{World: fleetWorld, Capacity: 1})
	for r, vps := range fleetRounds {
		if _, err := coord.ExecuteRound(context.Background(), uint64(r+1), vps); err != nil {
			coord.Close()
			wait()
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	st := coord.Stats()
	coord.Close()
	wait()

	assertIdentical(t, local, cp)
	if got, want := cp.Health().Retries, local.Health().Retries; got != want || got != crashed {
		t.Fatalf("fleet retried %d times, in-process %d, for %d crashed vantage points", got, want, crashed)
	}
	share := (len(fleetRounds[0]) + 1) / 2
	most := 0
	for i, rec := range recs {
		for _, l := range rec.leases {
			if len(l.Units) > share {
				t.Fatalf("agent %d was handed %d units, more than its share %d of %d vantage points", i, len(l.Units), share, len(fleetRounds[0]))
			}
			most = max(most, len(l.Units))
		}
	}
	if most != share || st.Units <= st.Leases {
		t.Fatalf("largest lease %d units, want %d; %d leases carried %d units", most, share, st.Leases, st.Units)
	}
}

// A lease still out when its round is aborted must not hold its agent's
// capacity into the next round: the agent, scripted here, is handed round
// 1's first lease, the round is cancelled under it, and round 2 must
// lease to it all the same.
func TestAbortedRoundFreesItsLeases(t *testing.T) {
	cfg, _, h, vps := clusterTestbed(t)
	coord, err := NewCoordinator(Config{
		Campaign: census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()}),
		Targets:  h.Targets(), Census: testCensusCfg(), World: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordSide, agentSide := net.Pipe()
	if err := coord.Attach(coordSide); err != nil {
		t.Fatal(err)
	}
	defer agentSide.Close()
	agentSide.SetDeadline(time.Now().Add(10 * time.Second))
	go agentSide.Write(append([]byte(streamMagic), appendFrame(nil, frameHello, appendHello(nil, &helloMsg{Name: "slow", Capacity: 1}))...))
	fr := newFrameReader(agentSide, 0)
	if err := readMagic(fr.r); err != nil {
		t.Fatal(err)
	}
	nextLease := func() leaseMsg {
		t.Helper()
		for {
			typ, payload, err := fr.next()
			if err != nil {
				t.Fatalf("awaiting a lease: %v", err)
			}
			if typ == frameLease {
				l, err := decodeLease(payload)
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.ExecuteRound(ctx, 1, vps[0])
		done <- err
	}()
	if l := nextLease(); l.Units[0].Round != 1 {
		t.Fatalf("first lease is of round %d", l.Units[0].Round)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled round returned no error")
	}
	go coord.ExecuteRound(context.Background(), 2, vps[1]) // ends with Close
	if l := nextLease(); l.Units[0].Round != 2 {
		t.Fatalf("lease after the aborted round is of round %d", l.Units[0].Round)
	}
}
