package census

import (
	"sync"
	"sync/atomic"

	"anycastmap/internal/netsim"
	"anycastmap/internal/prober"
)

// SpanPlans is a round's span-plan cache, the one both executors probe
// through: ExecuteRoundPipelined holds one per round, a cluster agent one
// per session. Every vantage point probes every span, so a span is
// planned once - by the first unit to reach it, concurrent ones waiting
// for that build - and its plan read by all of the round's units over the
// span. A plan is a function of the world, the span's targets and the
// blacklist alone, so a shared plan yields the same replies as one of the
// unit's own (TestPlanSharedBitIdentical).
//
// Plans are keyed by the whole span, so units whose spans differ in width
// never share one. A unit of a later round drops the earlier round's
// plans: the cache holds at most one round's, ~33 B per target. A unit of
// an earlier round (a lease that outlived its round) is served from the
// current round's plans, which is equally correct. Safe for concurrent
// use.
type SpanPlans struct {
	w         *netsim.World
	targets   []netsim.IP
	blacklist *prober.Greylist

	mu    sync.Mutex // owns round and plans
	round uint64
	plans map[Span]*spanPlan

	built atomic.Int64
}

type spanPlan struct {
	once sync.Once
	plan *prober.Plan
}

// NewSpanPlans returns an empty cache over the campaign's target list,
// planning around the hosts blacklist holds (nil: none).
func NewSpanPlans(w *netsim.World, targets []netsim.IP, blacklist *prober.Greylist) *SpanPlans {
	return &SpanPlans{w: w, targets: targets, blacklist: blacklist, plans: make(map[Span]*spanPlan)}
}

// Plan returns the plan of targets[sp.Lo:sp.Hi] for a unit of round,
// building it on the span's first use in the round.
func (c *SpanPlans) Plan(round uint64, sp Span) *prober.Plan {
	c.mu.Lock()
	if round > c.round {
		c.round = round
		clear(c.plans)
	}
	p := c.plans[sp]
	if p == nil {
		p = new(spanPlan)
		c.plans[sp] = p
	}
	c.mu.Unlock()
	p.once.Do(func() {
		p.plan = prober.NewPlan(c.w, c.targets[sp.Lo:sp.Hi], c.blacklist)
		c.built.Add(1)
	})
	return p.plan
}

// Built returns how many plans the cache has built since it was made.
func (c *SpanPlans) Built() int { return int(c.built.Load()) }
