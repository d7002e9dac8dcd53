package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// diffMasterSeed fixes the cases TestExecutorsDifferential draws; case i
// draws from its own stream of it, so a failing case reproduces alone.
const (
	diffMasterSeed = 0x42_0ACC
	diffCases      = 16
)

// diffVariant is one way of executing a census: in process at workers
// probing vantage points, or through a coordinator and agents harness
// agents of lease capacity capacity; both over spans width targets wide
// (0 is census.DefaultSpanTargets).
type diffVariant struct {
	workers, agents, capacity, width int
}

func (v diffVariant) String() string {
	width := fmt.Sprint(v.width)
	if v.width == math.MaxInt {
		width = "max"
	}
	if v.agents == 0 {
		return fmt.Sprintf("in-process workers=%d width=%s", v.workers, width)
	}
	return fmt.Sprintf("coordinator agents=%d capacity=%d width=%s", v.agents, v.capacity, width)
}

// diffAnchor is what every fault-free variant is compared with: one
// worker probing each round as one span.
var diffAnchor = diffVariant{workers: 1, width: math.MaxInt}

// diffCase is one drawn census: a world, a platform, rounds over
// overlapping vantage point sets, a fault plan and the variants that
// execute it. Under a fault plan every variant shares one span width: the
// prober draws a crash's position within a unit, so the width moves where
// a crashed vantage point dies.
type diffCase struct {
	index     int
	worldSeed uint64
	unicast   int
	platform  string
	rounds    [][]platform.VP
	faults    string // the fault plan's kind, "" for none
	fault     *netsim.FaultConfig
	variants  []diffVariant
}

func (c *diffCase) String() string {
	ids := make([][]int, len(c.rounds))
	for r, set := range c.rounds {
		for _, vp := range set {
			ids[r] = append(ids[r], vp.ID)
		}
	}
	f := "none"
	if c.fault != nil {
		f = fmt.Sprintf("%s %+v", c.faults, *c.fault)
	}
	return fmt.Sprintf("case %d: world seed %d, %d unicast /24s, %s, vantage point IDs per round %v, faults %s",
		c.index, c.worldSeed, c.unicast, c.platform, ids, f)
}

// drawDiffCase draws case i. The fault plan cycles with i, and the
// platform with i/3, so every plan meets both platforms; the rest is
// drawn. Widths are 1, a small odd width, the default or wider than any
// target list; executors are in process at 1-4 workers or a coordinator
// with 1-3 agents at capacity 1 or 2, and a fault case has a fleet among
// its variants. A width-1 fleet would lease one cell at a time, so width
// 1 stays in process.
func drawDiffCase(i int) *diffCase {
	rng := rand.New(rand.NewPCG(diffMasterSeed, uint64(i)))
	c := &diffCase{index: i, worldSeed: rng.Uint64(), unicast: 300 + rng.IntN(400)}
	pl := platform.PlanetLab(cities.Default())
	if i/3%2 == 1 {
		pl = platform.RIPEAtlas(cities.Default())
	}
	c.platform = pl.Name()
	// Each round samples over half of one pool, so consecutive rounds
	// share vantage points and each registers some the other lacks.
	pool := pl.Sample(20, rng.Uint64())
	for range 2 + rng.IntN(2) {
		var set []platform.VP
		for _, j := range rng.Perm(len(pool))[:12+rng.IntN(6)] {
			set = append(set, pool[j])
		}
		c.rounds = append(c.rounds, set)
	}
	switch i % 3 {
	case 1:
		c.faults = "recoverable crashes, flaps, bursts, outages"
		c.fault = &netsim.FaultConfig{Seed: rng.Uint64(), CrashFraction: 0.3, RecoveryAttempts: 1 + rng.IntN(2),
			FlapFraction: 0.3, BurstLossFraction: 0.3, TargetOutageFraction: 0.05}
	case 2:
		c.faults = "sticky and recoverable crashes"
		c.fault = &netsim.FaultConfig{Seed: rng.Uint64(), CrashFraction: 0.4, CrashStickiness: 0.5}
	}
	width := func() int { return [...]int{1, 3 + 2*rng.IntN(15), 0, math.MaxInt}[rng.IntN(4)] }
	executor := func(width int, fleet bool) diffVariant {
		if width == 1 || !fleet {
			return diffVariant{workers: 1 + rng.IntN(4), width: width}
		}
		return diffVariant{agents: 1 + rng.IntN(3), capacity: 1 + rng.IntN(2), width: width}
	}
	if c.fault == nil {
		c.variants = []diffVariant{diffAnchor}
		for range 3 {
			c.variants = append(c.variants, executor(width(), rng.IntN(2) == 0))
		}
		return c
	}
	w := width()
	c.variants = []diffVariant{{workers: 1, width: w}, executor(w, true), executor(w, rng.IntN(2) == 0)}
	return c
}

// diffRound is what one round reports, minus its wall-clock duration.
type diffRound struct {
	sum census.RoundSummary
	err string
}

// diffResult is everything a campaign's execution is compared on.
type diffResult struct {
	rounds   []diffRound
	combined *census.Combined
	greylist map[netsim.IP]netsim.ReplyKind
	health   census.CampaignHealth
	outcomes []census.Outcome
	stats    Stats // fleet variants only
	deaths   int
}

// diffBed is a case's world, its faulty view, target list and blacklist.
type diffBed struct {
	cfg       netsim.Config
	world     *netsim.World // the faulty view when the case has faults
	h         *hitlist.Hitlist
	blacklist *prober.Greylist
}

func newDiffBed(t *testing.T, c *diffCase) diffBed {
	t.Helper()
	cfg := netsim.DefaultConfig()
	cfg.Seed, cfg.Unicast24s = c.worldSeed, c.unicast
	w := netsim.New(cfg)
	// Every unicast target the pruned hitlist keeps and one anycast /24
	// in ten: analysing an anycast target is what costs.
	full := hitlist.FromWorld(w).PruneNeverAlive()
	thin := map[netsim.IP]bool{}
	for i, ip := range full.Targets() {
		if w.IsAnycast(ip.Prefix()) && i%10 != 0 {
			thin[ip] = true
		}
	}
	b := diffBed{cfg: cfg, world: w, h: full.Without(thin)}
	var err error
	if b.blacklist, err = prober.BuildBlacklist(w, c.rounds[0][0], b.h.Targets(), prober.Config{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if c.fault != nil {
		plan, err := netsim.NewFaultPlan(*c.fault)
		if err != nil {
			t.Fatal(err)
		}
		b.world = w.WithFaults(plan)
	}
	return b
}

// execute runs the case's rounds through one variant.
func (b diffBed) execute(t *testing.T, c *diffCase, v diffVariant) diffResult {
	t.Helper()
	ccfg := census.Config{Seed: 9, Workers: v.workers, RetryBackoff: -1}
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	var res diffResult
	exec := cp.Local(b.world, b.h, b.blacklist, census.PipelineConfig{SpanTargets: v.width})
	var hs *Harness
	if v.agents > 0 {
		coord, err := NewCoordinator(Config{
			Campaign:     cp,
			Targets:      b.h.Targets(),
			Blacklist:    b.blacklist,
			Census:       ccfg,
			World:        b.cfg,
			Faults:       c.fault,
			ShardTargets: v.width,
			Tick:         5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if hs, err = NewHarness(coord, HarnessConfig{Agents: v.agents, Agent: AgentConfig{World: b.world, Capacity: v.capacity}}); err != nil {
			coord.Close()
			t.Fatal(err)
		}
		// The whole fleet registers before the first round, so every
		// agent can take leases.
		for deadline := time.Now().Add(10 * time.Second); coord.Stats().AgentsJoined < v.agents && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		exec = coord
	}
	outcomes, rep, err := cp.Drive(context.Background(), census.Drive{Executor: exec, First: 1, Schedule: c.rounds,
		Workers: v.workers})
	// The drive's error joins one per failed round, each naming its round.
	roundErrs := map[uint64]string{}
	if err != nil {
		for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
			var round uint64
			if _, serr := fmt.Sscanf(e.Error(), "census %d:", &round); serr != nil {
				t.Fatalf("%v\n%v: a drive error that names no round: %v", c, v, e)
			}
			roundErrs[round] = e.Error()
		}
	}
	for i, sum := range rep.Rounds {
		sum.Duration = 0
		res.rounds = append(res.rounds, diffRound{sum: sum, err: roundErrs[uint64(i+1)]})
	}
	if hs != nil {
		res.deaths = hs.Deaths()
		res.stats = exec.(*Coordinator).Stats()
		if err := hs.Close(); err != nil {
			t.Fatalf("%v\n%v: harness close: %v", c, v, err)
		}
	}
	res.combined = cp.Combined()
	res.greylist = cp.Greylist().Snapshot()
	res.health = cp.Health()
	res.outcomes = outcomes
	return res
}

// diffCompare reports the first way got differs from want, or "". A
// vantage point's completion sums its units' simulated times, each
// truncated to the nanosecond, so it is compared only between variants
// that cut the rounds into the same spans.
func diffCompare(want, got diffResult, sameSpans bool) string {
	if len(got.rounds) != len(want.rounds) {
		return fmt.Sprintf("%d rounds, want %d", len(got.rounds), len(want.rounds))
	}
	for r := range want.rounds {
		w, g := want.rounds[r], got.rounds[r]
		if g.err != w.err {
			return fmt.Sprintf("round %d error %q, want %q", r+1, g.err, w.err)
		}
		if !sameSpans {
			w.sum.Completion, g.sum.Completion = nil, nil
		}
		if !reflect.DeepEqual(g.sum, w.sum) {
			return fmt.Sprintf("round %d summary\n got %+v\nwant %+v", r+1, g.sum, w.sum)
		}
	}
	cw, cg := want.combined, got.combined
	switch {
	case !reflect.DeepEqual(cg.VPs, cw.VPs):
		return "VP union diverges"
	case !reflect.DeepEqual(cg.Targets, cw.Targets) || cg.Rounds != cw.Rounds:
		return "target list or round count diverges"
	}
	for v := range cw.RTTus {
		if !slices.Equal(cg.RTTus[v], cw.RTTus[v]) {
			return fmt.Sprintf("combined row %d (%s) diverges", v, cw.VPs[v].Name)
		}
	}
	switch {
	case !reflect.DeepEqual(got.greylist, want.greylist):
		return fmt.Sprintf("greylist of %d hosts, want %d", len(got.greylist), len(want.greylist))
	case !reflect.DeepEqual(got.health, want.health):
		return fmt.Sprintf("campaign health %+v, want %+v", got.health, want.health)
	case !reflect.DeepEqual(got.outcomes, want.outcomes):
		return fmt.Sprintf("%d analysis outcomes, want %d, or they differ", len(got.outcomes), len(want.outcomes))
	}
	return ""
}

// checkFaultTruth holds a fault case's reference to its plan: each
// round quarantines exactly the vantage points whose crash is sticky,
// reports the error only then, and recovers every other crashed one. It
// returns how many crashes of each sort it checked, at every unit width,
// one target included.
func checkFaultTruth(c *diffCase, ref diffResult) (recovering, sticky int, msg string) {
	plan, _ := netsim.NewFaultPlan(*c.fault)
	for r, set := range c.rounds {
		rec, st := 0, 0
		for _, vp := range set {
			if crashes, s := plan.Crashes(vp.ID, uint64(r+1)); crashes && s {
				st++
			} else if crashes {
				rec++
			}
		}
		h := ref.rounds[r].sum.Health
		if len(h.Quarantined) != st || h.Recovered != rec || (st > 0) != (ref.rounds[r].err != "") {
			return 0, 0, fmt.Sprintf("round %d: %s (error %q); the plan crashes %d recoverably, %d for good",
				r+1, h, ref.rounds[r].err, rec, st)
		}
		recovering, sticky = recovering+rec, sticky+st
	}
	return recovering, sticky, ""
}

// TestExecutorsDifferential draws censuses - world seed, platform,
// rounds over overlapping vantage point sets, fault plan, span width -
// and executes each through in-process workers and coordinator fleets.
// Every variant must agree on each round's summary counts, RunHealth and
// error, the combined rows, the VP union, the greylist, the campaign
// health and the analysis outcomes: without faults with the anchor (one
// worker, one span per round; census's TestCensusDeterminism holds it to
// the whole-run references), under faults with the case's in-process
// single-worker run at the same span width. A fleet loses no agent and,
// without faults, re-leases nothing. Agent exits and agent loss are
// TestAgentLossReLease's and the churn tests' contract, not this one's.
func TestExecutorsDifferential(t *testing.T) {
	compared := map[string]int{} // "<faults>, <executor>" -> variants
	widths := map[int]int{}
	spannedFleets := 0
	recovering, sticky := 0, 0
	for i := range diffCases {
		c := drawDiffCase(i)
		bed := newDiffBed(t, c)
		ref := bed.execute(t, c, c.variants[0])
		if c.fault != nil {
			rec, st, msg := checkFaultTruth(c, ref)
			if msg != "" {
				t.Fatalf("%v\n%v: %s", c, c.variants[0], msg)
			}
			recovering, sticky = recovering+rec, sticky+st
		} else if len(ref.outcomes) == 0 {
			t.Fatalf("%v: the anchor detected no anycast target", c)
		}
		refSpans := c.variants[0].spans(bed.h.Len())
		for _, v := range c.variants[1:] {
			got := bed.execute(t, c, v)
			if msg := diffCompare(ref, got, slices.Equal(v.spans(bed.h.Len()), refSpans)); msg != "" {
				t.Fatalf("%v\n%v vs %v: %s", c, v, c.variants[0], msg)
			}
			if v.agents > 0 {
				st := got.stats
				if got.deaths != 0 || st.AgentsLost != 0 || st.AgentsJoined != v.agents ||
					(c.fault == nil && (st.ReLeases != 0 || st.Expired != 0)) {
					t.Fatalf("%v\n%v: %d deaths, stats %+v", c, v, got.deaths, st)
				}
			}
			compared[fmt.Sprintf("%s, %s", cmp.Or(c.faults, "no faults"), strings.Fields(v.String())[0])]++
			widths[v.width]++
			if c.fault != nil && v.agents > 0 && len(refSpans) > 1 {
				spannedFleets++
			}
		}
	}
	// The draw must have reached every plan with both executors, every
	// kind of width and a fleet cutting a faulty round into several spans,
	// and have checked crashes of both sorts against the plan.
	t.Logf("compared %v; widths %v; %d multi-span fleets under faults; checked %d recovering, %d sticky crashes",
		compared, widths, spannedFleets, recovering, sticky)
	if len(compared) != 6 || widths[1] == 0 || widths[0] == 0 || widths[math.MaxInt] == 0 || len(widths) < 4 ||
		spannedFleets == 0 || recovering == 0 || sticky == 0 {
		t.Fatal("the draw misses an axis; raise diffCases")
	}
}

// spans is how the variant cuts a target list of n into spans.
func (v diffVariant) spans(n int) []census.Span {
	return census.ShardSpans(n, census.PipelineConfig{SpanTargets: v.width}.EffectiveSpanTargets())
}
