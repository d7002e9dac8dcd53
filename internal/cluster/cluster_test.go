package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// The cluster testbed: a small deterministic world, a pruned hitlist,
// and two per-round vantage point sets (the second overlapping the
// first, so round 2 registers new VPs mid-campaign).
var (
	ctbOnce sync.Once
	ctbCfg  netsim.Config
	ctbW    *netsim.World
	ctbH    *hitlist.Hitlist
	ctbVPs  [][]platform.VP
)

func clusterTestbed(t *testing.T) (netsim.Config, *netsim.World, *hitlist.Hitlist, [][]platform.VP) {
	t.Helper()
	ctbOnce.Do(func() {
		ctbCfg = netsim.DefaultConfig()
		ctbCfg.Unicast24s = 3000
		ctbW = netsim.New(ctbCfg)
		ctbH = hitlist.FromWorld(ctbW).PruneNeverAlive()
		pl := platform.PlanetLab(cities.Default())
		ctbVPs = [][]platform.VP{pl.Sample(24, 1), pl.Sample(20, 2)}
	})
	return ctbCfg, ctbW, ctbH, ctbVPs
}

// testCensusCfg disables the retry backoff so re-leases are immediate.
func testCensusCfg() census.Config {
	return census.Config{Seed: 9, RetryBackoff: -1}
}

// singleProcessReference runs the rounds through the in-process
// Campaign path against a fault-free world.
func singleProcessReference(t *testing.T, w *netsim.World, h *hitlist.Hitlist, vps [][]platform.VP) *census.Campaign {
	t.Helper()
	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	for r, set := range vps {
		if _, err := cp.ExecuteRoundPipelined(context.Background(), w, set, h, nil, uint64(r+1), census.PipelineConfig{}); err != nil {
			t.Fatalf("single-process round %d: %v", r+1, err)
		}
	}
	return cp
}

// distributedRun executes the same rounds across a harness fleet and
// returns the campaign plus the harness (closed) and coordinator stats.
func distributedRun(t *testing.T, ccfg Config, hcfg HarnessConfig, vps [][]platform.VP) (*census.Campaign, Stats, int) {
	t.Helper()
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg.Census})
	ccfg.Campaign = cp
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(coord, hcfg)
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	for r, set := range vps {
		if _, err := coord.ExecuteRound(context.Background(), uint64(r+1), set); err != nil {
			h.Close()
			t.Fatalf("distributed round %d: %v", r+1, err)
		}
	}
	deaths := h.Deaths()
	stats := coord.Stats()
	if err := h.Close(); err != nil {
		t.Fatalf("harness close: %v", err)
	}
	return cp, stats, deaths
}

// assertIdentical holds the distributed campaign to byte-identity with
// the single-process one: combined rows, greylist, and analysis
// outcomes.
func assertIdentical(t *testing.T, want, got *census.Campaign) {
	t.Helper()
	cw, cg := want.Combined(), got.Combined()
	if cw == nil || cg == nil {
		t.Fatal("campaign missing combined matrix")
	}
	if !reflect.DeepEqual(cw.VPs, cg.VPs) {
		t.Fatal("VP union diverges")
	}
	if !reflect.DeepEqual(cw.Targets, cg.Targets) {
		t.Fatal("target lists diverge")
	}
	if cw.Rounds != cg.Rounds {
		t.Fatalf("rounds %d vs %d", cw.Rounds, cg.Rounds)
	}
	for v := range cw.RTTus {
		if !reflect.DeepEqual(cw.RTTus[v], cg.RTTus[v]) {
			t.Fatalf("combined row %d (%s) diverges", v, cw.VPs[v].Name)
		}
	}
	if !reflect.DeepEqual(want.Greylist().Snapshot(), got.Greylist().Snapshot()) {
		t.Fatal("greylists diverge")
	}
	db := cities.Default()
	ow := census.AnalyzeAll(db, cw, core.Options{}, 2, 0)
	og := census.AnalyzeAll(db, cg, core.Options{}, 2, 0)
	if !reflect.DeepEqual(ow, og) {
		t.Fatal("analysis outcomes diverge")
	}
}

func TestClusterMatchesSingleProcess(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps)

	for _, agents := range []int{1, 4, 7} {
		cp, stats, deaths := distributedRun(t,
			Config{
				Targets:      h.Targets(),
				Census:       testCensusCfg(),
				World:        cfg,
				ShardTargets: 700,
			},
			HarnessConfig{
				Agents: agents,
				Agent:  AgentConfig{World: w, Capacity: 2},
			},
			vps)
		assertIdentical(t, ref, cp)
		if deaths != 0 {
			t.Fatalf("%d agents: %d unexpected deaths", agents, deaths)
		}
		if stats.AgentsJoined != agents {
			t.Fatalf("%d agents: %d joined", agents, stats.AgentsJoined)
		}
		if stats.ReLeases != 0 || stats.Expired != 0 {
			t.Fatalf("%d agents: unexpected recovery traffic: %+v", agents, stats)
		}
	}
}

// The TCP loopback transport must behave exactly like the pipe: same
// protocol, same bytes, real sockets. Agents rebuild the world from the
// welcome message here (World: nil), exercising the true multi-process
// path.
func TestClusterTCPLoopback(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps)

	cp, stats, _ := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       testCensusCfg(),
			World:        cfg,
			ShardTargets: 1000,
		},
		HarnessConfig{
			Agents:    4,
			Transport: "tcp",
			Agent:     AgentConfig{Capacity: 2},
		},
		vps)
	assertIdentical(t, ref, cp)
	if stats.FramesFolded == 0 {
		t.Fatal("no frames folded over TCP")
	}
}

// A blacklist shipped in the welcome must shape agent probing exactly as
// it shapes the single-process path.
func TestClusterHonoursBlacklist(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	black, err := prober.BuildBlacklist(w, vps[0][0], h.Targets(), prober.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	targets := h.Without(black.Targets())

	ref := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	if _, err := ref.ExecuteRoundPipelined(context.Background(), w, vps[0], targets, black, 1, census.PipelineConfig{}); err != nil {
		t.Fatal(err)
	}

	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:     cp,
		Targets:      targets.Targets(),
		Blacklist:    black,
		Census:       testCensusCfg(),
		World:        cfg,
		ShardTargets: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHarness(coord, HarnessConfig{Agents: 3, Agent: AgentConfig{World: w}})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	if _, err := coord.ExecuteRound(context.Background(), 1, vps[0]); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ref, cp)
}

// Agent churn: every agent is killed after each few row frames and
// respawned. The coordinator re-leases the lost shards; because replies
// are pure functions of (seed, VP, target, round) and the fold is a
// min, the final state is still byte-identical. The retry budget is
// raised so repeated churn cannot quarantine a vantage point.
func TestClusterSurvivesAgentChurn(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ccfg := testCensusCfg()
	ccfg.MaxAttempts = 50
	refCp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	for r, set := range vps {
		if _, err := refCp.ExecuteRoundPipelined(context.Background(), w, set, h, nil, uint64(r+1), census.PipelineConfig{}); err != nil {
			t.Fatal(err)
		}
	}

	cp, stats, deaths := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       ccfg,
			World:        cfg,
			ShardTargets: 400,
			Tick:         5 * time.Millisecond,
		},
		HarnessConfig{
			Agents:          4,
			Agent:           AgentConfig{World: w},
			Respawn:         true,
			KillAfterFrames: 6,
		},
		vps)
	assertIdentical(t, refCp, cp)
	if deaths == 0 {
		t.Fatal("churn injected no deaths")
	}
	if stats.ReLeases == 0 {
		t.Fatal("no shards were re-leased despite churn")
	}
	if q := cp.Health().Quarantined; len(q) != 0 {
		t.Fatalf("churn quarantined VPs: %v", q)
	}
}

// hungAgent registers and accepts leases but never answers them: the
// coordinator must expire its lease, presume it dead, and re-lease the
// shard to a live agent.
func hungAgent(t *testing.T, coord *Coordinator) {
	t.Helper()
	coordSide, agentSide := net.Pipe()
	if err := coord.Attach(coordSide); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer agentSide.Close()
		if _, err := agentSide.Write([]byte(streamMagic)); err != nil {
			return
		}
		if _, err := agentSide.Write(appendFrame(nil, frameHello, appendHello(nil, &helloMsg{Name: "hung", Capacity: 4}))); err != nil {
			return
		}
		fr := newFrameReader(agentSide, 0)
		if err := readMagic(fr.r); err != nil {
			return
		}
		for { // swallow frames forever, answering nothing
			if _, _, err := fr.next(); err != nil {
				return
			}
		}
	}()
}

func TestHungAgentLeaseExpires(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps[:1])

	ccfg := testCensusCfg()
	ccfg.MaxAttempts = 50
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	coord, err := NewCoordinator(Config{
		Campaign:     cp,
		Targets:      h.Targets(),
		Census:       ccfg,
		World:        cfg,
		ShardTargets: 700,
		LeaseTTL:     150 * time.Millisecond,
		Tick:         10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hungAgent(t, coord)
	hs, err := NewHarness(coord, HarnessConfig{Agents: 2, Agent: AgentConfig{World: w}})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	if _, err := coord.ExecuteRound(context.Background(), 1, vps[0]); err != nil {
		t.Fatalf("round with hung agent: %v", err)
	}
	stats := coord.Stats()
	if stats.Expired == 0 {
		t.Fatalf("hung agent's leases never expired: %+v", stats)
	}
	assertIdentical(t, ref, cp)
}

// lyingConn is an agent's connection that rewrites every rows frame it
// carries (the agent writes each frame in one Write) into the bytes lie
// returns for the frame's lease and units. It reads the units at the
// widths of their spans, which it learns from the lease frames the
// coordinator sends the agent through it.
type lyingConn struct {
	net.Conn
	lie func(id uint64, units []unitRows) []byte

	mu     sync.Mutex
	magic  bool                   // the coordinator's magic is read
	in     []byte                 // coordinator bytes not yet parsed into frames
	widths map[uint64]map[int]int // lease ID -> slot -> span width
}

func (c *lyingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.in = append(c.in, b[:n]...)
	if !c.magic && len(c.in) >= len(streamMagic) {
		c.in, c.magic = c.in[len(streamMagic):], true
	}
	for c.magic && len(c.in) >= 5 && len(c.in)-4 >= int(binary.BigEndian.Uint32(c.in)) {
		frame := c.in[4 : 4+binary.BigEndian.Uint32(c.in)]
		c.in = c.in[4+len(frame):]
		if frame[0] != frameLease {
			continue
		}
		l, err := decodeLease(frame[1:])
		if err != nil {
			return 0, err
		}
		if c.widths == nil {
			c.widths = map[uint64]map[int]int{}
		}
		c.widths[l.ID] = map[int]int{}
		for _, u := range l.Units {
			c.widths[l.ID][u.Slot] = u.Span.Hi - u.Span.Lo
		}
	}
	return n, err
}

func (c *lyingConn) Write(b []byte) (int, error) {
	if len(b) < 5 || b[4] != frameRows {
		return c.Conn.Write(b)
	}
	id, _ := binary.Uvarint(b[5:])
	c.mu.Lock()
	widths := c.widths[id]
	c.mu.Unlock()
	_, units, err := decodeRows(b[5:], func(slot int) (int, bool) {
		w, ok := widths[slot]
		return w, ok
	})
	if err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(c.lie(id, units)); err != nil {
		return 0, err
	}
	return len(b), nil
}

// statsLie misreports the first unit's statistics.
func statsLie(lie func(*census.ShardStats)) func(uint64, []unitRows) []byte {
	return func(id uint64, units []unitRows) []byte {
		lie(&units[0].Stats)
		return appendRowsFrame(nil, id, units...)
	}
}

// A lying agent probes honestly but misreports what it did. The fold sums
// Sent into the round's probe count and Completion into each vantage
// point's Fig. 8 time, and folds a unit wherever its slot says, so the
// coordinator must refuse such a frame before it folds — drop the agent,
// re-lease its units — and the round must come out as if the liar had
// never joined. The statistics lies run on one-unit leases; the lies
// about which units a frame reports run on leases of two (a span half
// ShardTargets wide), where a lease outlives its first unit.
func TestLyingAgentDropped(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	const narrow, batched = 700, 2 * 4000
	if h.Len() > batched/2 {
		t.Fatalf("testbed has %d targets, want at most %d for two units a lease", h.Len(), batched/2)
	}
	ccfg := testCensusCfg()
	ccfg.MaxAttempts = 50
	type want struct {
		cp  *census.Campaign
		sum census.RoundSummary
	}
	refs := map[int]want{}
	for _, width := range []int{narrow, batched} {
		ref := census.NewCampaign(census.CampaignConfig{Census: ccfg})
		sum, err := ref.ExecuteRoundPipelined(context.Background(), w, vps[0], h, nil, 1, census.PipelineConfig{SpanTargets: width})
		if err != nil {
			t.Fatal(err)
		}
		refs[width] = want{ref, sum}
	}
	for name, tc := range map[string]struct {
		width int
		lie   func(uint64, []unitRows) []byte
	}{
		"sent":       {narrow, statsLie(func(st *census.ShardStats) { st.Sent = math.MaxInt32 })},
		"completion": {narrow, statsLie(func(st *census.ShardStats) { st.Completion++ })},
		"echo":       {narrow, statsLie(func(st *census.ShardStats) { st.Echo++; st.Timeouts-- })},
		"fault-lost": {narrow, statsLie(func(st *census.ShardStats) { st.FaultLost = st.Timeouts + 1 })},
		"sum":        {narrow, statsLie(func(st *census.ShardStats) { st.Errors++ })},
		// The first unit's row reports eight more targets than its span
		// has, each answered, and its statistics agree with the row.
		"row-width": {narrow, func(id uint64, units []unitRows) []byte {
			u := &units[0]
			u.RTTus = append(u.RTTus, 900, 900, 900, 900, 900, 900, 900, 900)
			u.Stats.Sent += 8
			u.Stats.Echo += 8
			return appendRowsFrame(nil, id, units...)
		}},
		"slot-outside-lease": {batched, func(id uint64, units []unitRows) []byte {
			units[0].Slot = 1 << 20
			return appendRowsFrame(nil, id, units...)
		}},
		"repeated-slot": {batched, func(id uint64, units []unitRows) []byte {
			return appendRowsFrame(nil, id, append(units, units[0])...)
		}},
		"folds-failed-unit": {batched, func(id uint64, units []unitRows) []byte {
			fail := appendFrame(nil, frameFail, appendFail(nil, &failMsg{ID: id, Slot: units[0].Slot, Err: "changed my mind"}))
			return appendRowsFrame(fail, id, units...)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			ref := refs[tc.width]
			cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
			coord, err := NewCoordinator(Config{
				Campaign: cp, Targets: h.Targets(), Census: ccfg, World: cfg,
				ShardTargets: tc.width, Tick: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The liar joins first, so it holds the lowest agent ID and
			// the first leases of the round.
			coordSide, agentSide := net.Pipe()
			if err := coord.Attach(coordSide); err != nil {
				t.Fatal(err)
			}
			liar := make(chan error, 1)
			go func() {
				liar <- RunAgent(context.Background(), &lyingConn{Conn: agentSide, lie: tc.lie}, AgentConfig{Name: "liar", World: w, Capacity: 2})
			}()
			for coord.Stats().AgentsJoined == 0 {
				time.Sleep(time.Millisecond)
			}
			hs, err := NewHarness(coord, HarnessConfig{Agents: 2, Agent: AgentConfig{World: w}})
			if err != nil {
				coord.Close()
				t.Fatal(err)
			}
			got, err := coord.ExecuteRound(context.Background(), 1, vps[0])
			stats := coord.Stats()
			hs.Close()
			<-liar
			if err != nil {
				t.Fatal(err)
			}
			want := ref.sum
			if got.Probes != want.Probes || got.EchoTargets != want.EchoTargets || got.GreylistLen != want.GreylistLen ||
				!reflect.DeepEqual(got.Completion, want.Completion) {
				t.Fatalf("round differs from the reference: %d probes, %d echo targets, %d greylisted, completion %v; want %d, %d, %d, %v",
					got.Probes, got.EchoTargets, got.GreylistLen, got.Completion, want.Probes, want.EchoTargets, want.GreylistLen, want.Completion)
			}
			assertIdentical(t, ref.cp, cp)
			if stats.AgentsLost != 1 {
				t.Fatalf("lost %d agents, want the liar alone", stats.AgentsLost)
			}
			if tc.width == batched && stats.Units <= stats.Leases {
				t.Fatalf("%d leases carried %d units: nothing was batched", stats.Leases, stats.Units)
			}
		})
	}
}

// A rows frame of a few bytes cannot make the coordinator allocate by its
// own claim: it is read only against a lease its agent holds, at the
// width of the leased unit it names. A frame naming a lease the agent
// does not hold is counted late and not read; one for a held lease whose
// row claims 2^26 samples drops its agent. Together the coordinator
// allocates under 1 MiB for them.
func TestHostileRowsFrameBounded(t *testing.T) {
	cfg, _, h, vps := clusterTestbed(t)
	ccfg := testCensusCfg()
	var mu sync.Mutex
	var logged []string
	coord, err := NewCoordinator(Config{
		Campaign: census.NewCampaign(census.CampaignConfig{Census: ccfg}),
		Targets:  h.Targets(), Census: ccfg, World: cfg, ShardTargets: 700,
		Log: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A scripted agent joins and takes the round's first lease.
	coordSide, agentSide := net.Pipe()
	if err := coord.Attach(coordSide); err != nil {
		t.Fatal(err)
	}
	defer agentSide.Close()
	agentSide.SetDeadline(time.Now().Add(10 * time.Second))
	go agentSide.Write(append([]byte(streamMagic), appendFrame(nil, frameHello, appendHello(nil, &helloMsg{Name: "hostile", Capacity: 1}))...))
	fr := newFrameReader(agentSide, 0)
	if err := readMagic(fr.r); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := fr.next(); err != nil || typ != frameWelcome {
		t.Fatalf("awaiting welcome: type %d, %v", typ, err)
	}
	go coord.ExecuteRound(context.Background(), 1, vps[0])
	typ, payload, err := fr.next()
	if err != nil || typ != frameLease {
		t.Fatalf("awaiting a lease: type %d, %v", typ, err)
	}
	l, err := decodeLease(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The unit: its slot, seven zero statistics, an empty greylist, then
	// a gap-mode row claiming 2^26 samples.
	hostile := func(id uint64) []byte {
		unit := binary.AppendUvarint(appendUvarints(nil, uint64(l.Units[0].Slot), 0, 0, 0, 0, 0, 0, 0, 0), 0)
		unit = binary.AppendUvarint(unit, 1<<26)
		return appendFrame(nil, frameRows, binary.AppendUvarint(nil, id), unit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, step := range []struct {
		frame []byte
		done  func(Stats) bool
	}{
		{hostile(l.ID + 1000), func(s Stats) bool { return s.LateFrames == 1 }},
		{hostile(l.ID), func(s Stats) bool { return s.AgentsLost == 1 }},
	} {
		if len(step.frame) > 64 {
			t.Fatalf("%d-byte hostile frame", len(step.frame))
		}
		if _, err := agentSide.Write(step.frame); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); !step.done(coord.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("hostile frame %x not refused: %+v", step.frame, coord.Stats())
			}
		}
	}
	runtime.ReadMemStats(&after)
	if st := coord.Stats(); st.FramesFolded != 0 || st.AgentsLost != 1 || st.LateFrames != 1 {
		t.Fatalf("after the hostile frames: %+v", st)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("two hostile rows frames made the coordinator allocate %d bytes", grew)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(strings.Join(logged, "\n"), "claims 67108864 samples for 700 targets") {
		t.Fatalf("the agent was not dropped for its row: %q", logged)
	}
}

// A round executed with no agents at all must abort after the grace
// period instead of hanging forever.
func TestAgentlessRoundAborts(t *testing.T) {
	cfg, _, h, vps := clusterTestbed(t)
	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:   cp,
		Targets:    h.Targets(),
		Census:     testCensusCfg(),
		World:      cfg,
		AgentGrace: 100 * time.Millisecond,
		Tick:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.ExecuteRound(context.Background(), 1, vps[0]); err == nil {
		t.Fatal("agentless round did not abort")
	}
}

// Attach and Close may race: a connection attached while the coordinator
// shuts down is either refused or adopted and closed, and Close's wait
// covers the goroutines Attach starts (go test -race reports the
// WaitGroup misuse otherwise).
func TestAttachRacesClose(t *testing.T) {
	cfg := Config{
		Campaign: census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()}),
		Targets:  []netsim.IP{1},
		Census:   testCensusCfg(),
		World:    netsim.DefaultConfig(),
	}
	for range 3000 {
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range 8 {
			coordSide, agentSide := net.Pipe()
			wg.Add(1)
			go func() {
				defer wg.Done()
				coord.Attach(coordSide) // refused once Close has begun
				agentSide.Close()
			}()
		}
		coord.Close()
		wg.Wait()
	}
}

func TestExecuteRoundContextCancel(t *testing.T) {
	cfg, _, h, vps := clusterTestbed(t)
	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign: cp,
		Targets:  h.Targets(),
		Census:   testCensusCfg(),
		World:    cfg,
		Tick:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := coord.ExecuteRound(ctx, 1, vps[0]); err == nil {
		t.Fatal("cancelled round returned no error")
	}
}

// Completion must not depend on shard width relative to fleet size:
// one wide shard per VP, or hundreds of narrow ones.
func TestClusterShardWidthExtremes(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps[:1])
	for _, width := range []int{0, 97, math.MaxInt} {
		cp, _, _ := distributedRun(t,
			Config{
				Targets:      h.Targets(),
				Census:       testCensusCfg(),
				World:        cfg,
				ShardTargets: width,
			},
			HarnessConfig{Agents: 4, Agent: AgentConfig{World: w, Capacity: 3}},
			vps[:1])
		assertIdentical(t, ref, cp)
	}
}

// An agent plans each span once per round, however many of its leases
// probe the span and however many of them run at once: at Capacity 2,
// every vantage point's lease of a span reads the plan the first one
// built, and round 2 replaces round 1's plans.
func TestAgentPlansEachSpanOncePerRound(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	const width = 500
	spans := len(census.ShardSpans(h.Len(), width))
	if spans < 3 {
		t.Fatalf("testbed has %d spans of %d targets, want >= 3", spans, width)
	}
	ref := singleProcessReference(t, w, h, vps)

	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:     cp,
		Targets:      h.Targets(),
		Census:       testCensusCfg(),
		World:        cfg,
		ShardTargets: width,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sessions are started here rather than by a Harness, so their
	// plan caches can be read once they have returned.
	sessions := []*agentSession{
		{cfg: AgentConfig{Name: "planner-0", World: w, Capacity: 2}},
		{cfg: AgentConfig{Name: "planner-1", World: w, Capacity: 2}},
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		coordSide, agentSide := net.Pipe()
		if err := coord.Attach(coordSide); err != nil {
			t.Fatal(err)
		}
		s.conn = agentSide
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(context.Background()) // ends with the coordinator's Close
		}()
	}
	for r, set := range vps {
		if _, err := coord.ExecuteRound(context.Background(), uint64(r+1), set); err != nil {
			coord.Close()
			wg.Wait()
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	leases := coord.Stats().Leases
	coord.Close()
	wg.Wait()
	assertIdentical(t, ref, cp)

	most := spans * len(vps)
	total := 0
	for i, s := range sessions {
		if s.plans == nil {
			t.Fatalf("agent %d was never welcomed", i)
		}
		if got := s.plans.Built(); got > most {
			t.Errorf("agent %d built %d plans for %d leases in all, want at most %d spans x %d rounds",
				i, got, leases, spans, len(vps))
		}
		total += s.plans.Built()
	}
	if total < spans {
		t.Errorf("the fleet built %d plans for %d spans", total, spans)
	}
}
