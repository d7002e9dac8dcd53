package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
	"anycastmap/internal/obs"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// Config parametrizes a Coordinator.
type Config struct {
	// Campaign receives the folded rounds; required. The coordinator
	// drives it through a census.RoundSched per round, so the campaign
	// must not be folding runs concurrently.
	Campaign *census.Campaign
	// Targets is the census target list, identical for every round.
	Targets []netsim.IP
	// Blacklist is the pre-census blacklist shipped to agents in the
	// welcome. It is snapshotted when the coordinator is built; later
	// additions do not reach agents.
	Blacklist *prober.Greylist
	// Census carries the probing configuration shipped to agents (rate,
	// seed). The retry budget and backoff that govern re-leasing are the
	// campaign's, applied by its round scheduler.
	Census census.Config
	// World is the deterministic world agents rebuild; in-process
	// agents may share a prebuilt *netsim.World instead (AgentConfig).
	World netsim.Config
	// Faults, when non-nil, is the fault weather agents install.
	Faults *netsim.FaultConfig

	// ShardTargets is the span width in targets and the most cells
	// (targets × vantage points) a lease holds; non-positive means
	// census.DefaultSpanTargets, as for the in-process executor. A lease
	// over a span this wide carries one unit; over a narrower span (a
	// target list shorter than ShardTargets) it carries as many units as
	// fit, up to an even share of the round's open vantage points across
	// the fleet's lease capacity.
	ShardTargets int
	// LeaseTTL is how long an agent may hold a lease before the
	// coordinator presumes it dead; expiry drops the whole agent (every
	// unit it has not reported fails with it). Zero means 30s; Validate
	// refuses it.
	LeaseTTL time.Duration
	// AgentGrace is how long a round may sit with zero registered
	// agents before it aborts. Zero means 30s.
	AgentGrace time.Duration
	// Tick is the internal maintenance interval: lease expiry and the
	// agentless grace. (Backoff release is not on it; a parked vantage
	// point wakes the loop by its own timer.) Zero means 25ms.
	Tick time.Duration
	// Log, when non-nil, receives operational events.
	Log func(format string, args ...any)
}

// Validate reports the first lease setting outside input may not ask
// for, or nil: a LeaseTTL of zero or less. Zero means 30s in a Config
// built in code; a command line, whose flag already defaults to 30s,
// can only mean a lease that expires at once.
func (c Config) Validate() error {
	if c.LeaseTTL <= 0 {
		return fmt.Errorf("cluster: LeaseTTL %v is not positive", c.LeaseTTL)
	}
	return nil
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 30 * time.Second
}

func (c Config) agentGrace() time.Duration {
	if c.AgentGrace > 0 {
		return c.AgentGrace
	}
	return 30 * time.Second
}

func (c Config) tick() time.Duration {
	if c.Tick > 0 {
		return c.Tick
	}
	return 25 * time.Millisecond
}

// Stats counts coordinator events; read it with Coordinator.Stats.
// Leases counts lease frames and Units the units they carried; ReLeases
// and FramesFolded count units.
type Stats struct {
	AgentsJoined int
	AgentsLost   int
	Leases       int
	Units        int
	ReLeases     int
	Expired      int
	LateFrames   int
	FramesFolded int
}

// agentConn is a registered (or registering) agent as the coordinator
// loop sees it. All fields are owned by the loop goroutine except conn
// and out, which the reader/writer goroutines use.
type agentConn struct {
	id       int64
	conn     net.Conn
	out      chan []byte
	name     string
	capacity int
	ready    bool
	dead     bool
	inflight map[uint64]*lease
}

// lease is a batch of scheduler units in an agent's hands. It ends when
// its last pending unit folds or fails.
type lease struct {
	id       uint64
	units    []leasedUnit
	pending  int
	agent    *agentConn
	deadline time.Time
}

type unitState uint8

const (
	unitPending unitState = iota
	unitFolded
	unitFailed
)

type leasedUnit struct {
	u     census.Unit
	state unitState
}

// unit returns the index of the lease's unit in slot, or -1. The search
// starts at hint: an agent reports its units in lease order.
func (l *lease) unit(slot, hint int) int {
	for k := range l.units {
		if i := (hint + k) % len(l.units); l.units[i].u.Slot == slot {
			return i
		}
	}
	return -1
}

type roundResult struct {
	summary census.RoundSummary
	err     error
}

// roundState is the in-flight round: the campaign's scheduler decides
// what runs, retries and quarantines; the coordinator keeps only who
// holds which unit and until when.
type roundState struct {
	round  uint64
	sched  *census.RoundSched
	leases map[uint64]*lease
	// fit is how many units of the round's widest span fit
	// Config.ShardTargets cells: the most one lease may carry.
	fit            int
	agentlessSince time.Time
	aborted        error
	result         chan roundResult
}

// Coordinator runs the control plane: a single loop goroutine owns all
// round and membership state and consumes closures from cmds, so no
// handler ever races another; per-connection reader and writer
// goroutines only decode/encode frames and post closures.
type Coordinator struct {
	cfg     Config
	welcome []byte // pre-encoded welcome frame

	cmds    chan func()
	quit    chan struct{}
	stopped chan struct{}
	wg      sync.WaitGroup

	// Loop-owned state.
	agents  map[int64]*agentConn
	nextID  int64
	leaseID uint64
	round   *roundState
	// wake fires at wakeAt, when the round's earliest parked vantage
	// point becomes runnable (zero: unarmed). dispatch arms it, the
	// round's end stops it, and a fire only ever dispatches again.
	wake   *time.Timer
	wakeAt time.Time
	// Scratch for the lease being built and framed, and for the unit
	// result being read and folded.
	batch    []census.Unit
	leaseBuf []byte
	rows     census.ShardRows

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	statsMu sync.Mutex
	stats   Stats
	// foldSeconds is the shard-fold latency histogram RegisterMetrics
	// wires; nil until then, and observing nil is a no-op.
	foldSeconds atomic.Pointer[obs.Histogram]
}

// NewCoordinator builds the coordinator and starts its loop. Close it
// when done.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Campaign == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a campaign")
	}
	w := welcomeMsg{
		Head:      welcomeHead{World: cfg.World, Faults: cfg.Faults, Rate: cfg.Census.Rate, Seed: cfg.Census.Seed},
		Targets:   cfg.Targets,
		Blacklist: cfg.Blacklist,
	}
	if err := w.Head.validate(); err != nil {
		return nil, err
	}
	payload := appendWelcome(nil, &w)
	c := &Coordinator{
		cfg:     cfg,
		welcome: appendFrame(nil, frameWelcome, payload),
		cmds:    make(chan func(), 256),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
		agents:  make(map[int64]*agentConn),
		conns:   make(map[net.Conn]struct{}),
		wake:    time.NewTimer(time.Hour),
	}
	c.wake.Stop()
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// Stats returns a snapshot of the event counters.
func (c *Coordinator) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

func (c *Coordinator) bump(f func(*Stats)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// post hands a closure to the loop; it is dropped after shutdown.
func (c *Coordinator) post(f func()) {
	select {
	case c.cmds <- f:
	case <-c.quit:
	}
}

func (c *Coordinator) loop() {
	defer c.wg.Done()
	defer close(c.stopped)
	ticker := time.NewTicker(c.cfg.tick())
	defer ticker.Stop()
	for {
		select {
		case f := <-c.cmds:
			f()
		case <-ticker.C:
			c.onTick()
		case <-c.wake.C:
			c.wakeAt = time.Time{}
			c.dispatch()
		case <-c.quit:
			c.shutdown()
			return
		}
	}
}

// Attach adopts a transport connection to a (future) agent: the magic
// exchange, framing, and registration all happen on the coordinator's
// goroutines, so callers just hand over the conn. It is how both
// Serve-accepted TCP conns and net.Pipe test conns enter the cluster.
func (c *Coordinator) Attach(conn net.Conn) error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		conn.Close()
		return fmt.Errorf("cluster: coordinator is closed")
	}
	c.conns[conn] = struct{}{}
	// Counted under connMu: a Close that has not yet set closed waits for
	// these goroutines; one that has set it refused the conn above.
	c.wg.Add(2)
	c.connMu.Unlock()

	a := &agentConn{
		conn:     conn,
		out:      make(chan []byte, 1024),
		inflight: make(map[uint64]*lease),
	}
	c.post(func() {
		c.nextID++
		a.id = c.nextID
		c.agents[a.id] = a
	})

	go c.writeLoop(a)
	go c.readLoop(a)
	return nil
}

// Serve accepts agent connections until the listener closes.
func (c *Coordinator) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.quit:
				return nil
			default:
				return err
			}
		}
		if err := c.Attach(conn); err != nil {
			return nil
		}
	}
}

// writeLoop drains an agent's outbound queue. The magic goes out first,
// concurrently with readLoop waiting for the peer's magic — on an
// unbuffered net.Pipe neither side may block the other's handshake.
func (c *Coordinator) writeLoop(a *agentConn) {
	defer c.wg.Done()
	if _, err := a.conn.Write([]byte(streamMagic)); err != nil {
		return // readLoop notices the dead conn and reports it
	}
	for {
		select {
		case b, ok := <-a.out:
			if !ok {
				return
			}
			if _, err := a.conn.Write(b); err != nil {
				// Discard the rest until the loop closes the channel
				// (the reader reports the dead connection) or the
				// coordinator shuts down.
				for {
					select {
					case _, ok := <-a.out:
						if !ok {
							return
						}
					case <-c.quit:
						return
					}
				}
			}
		case <-c.quit:
			// Shutdown: flush whatever the loop already queued (the
			// shutdown frame, best-effort) and exit — the channel may
			// never close if this conn was still registering.
			for {
				select {
				case b, ok := <-a.out:
					if !ok {
						return
					}
					if _, err := a.conn.Write(b); err != nil {
						return
					}
				default:
					return
				}
			}
		}
	}
}

func (c *Coordinator) readLoop(a *agentConn) {
	defer c.wg.Done()
	err := c.readFrames(a)
	c.post(func() { c.dropAgent(a, fmt.Sprintf("connection lost: %v", err)) })
}

func (c *Coordinator) readFrames(a *agentConn) error {
	fr := newFrameReader(a.conn, DefaultMaxFrame)
	if err := readMagic(fr.r); err != nil {
		return err
	}
	for {
		typ, payload, err := fr.next()
		if err != nil {
			return err
		}
		switch typ {
		case frameHello:
			hello, err := decodeHello(payload)
			if err != nil {
				return err
			}
			c.post(func() { c.onHello(a, hello) })
		case frameRows:
			// Read on the loop, against the lease the frame names; the
			// body buffer is the reader's again at the next frame.
			rows := bytes.Clone(payload)
			c.post(func() { c.onRows(a, rows) })
		case frameFail:
			fail, err := decodeFail(payload)
			if err != nil {
				return err
			}
			c.post(func() { c.onFail(a, fail) })
		default:
			return fmt.Errorf("cluster: unexpected frame type %d from agent", typ)
		}
	}
}

// send enqueues a frame to an agent without ever blocking the loop: an
// agent that stops draining its queue is dropped, and its leases
// re-issued, exactly as if it had hung.
func (c *Coordinator) send(a *agentConn, b []byte) {
	if a.dead {
		return
	}
	select {
	case a.out <- b:
	default:
		c.dropAgent(a, "outbound queue overflow")
	}
}

func (c *Coordinator) onHello(a *agentConn, hello helloMsg) {
	if a.dead || a.ready {
		return
	}
	a.name = hello.Name
	a.capacity = hello.Capacity
	if a.capacity <= 0 {
		a.capacity = 1
	}
	a.ready = true
	c.bump(func(s *Stats) { s.AgentsJoined++ })
	c.logf("cluster: agent %q joined (capacity %d)", a.name, a.capacity)
	c.send(a, c.welcome)
	if c.round != nil {
		c.round.agentlessSince = time.Time{}
		c.dispatch()
	}
}

// heldLease returns the round's lease id when agent a holds it. Otherwise
// the frame naming it is late — its agent was dropped, the round is over,
// or the lease ended or belongs to another connection — and is counted and
// dropped unfolded: its units fold, or have folded, elsewhere.
func (c *Coordinator) heldLease(a *agentConn, id uint64) *lease {
	if r := c.round; r != nil && !a.dead {
		if l, ok := r.leases[id]; ok && l.agent == a {
			return l
		}
	}
	c.bump(func(s *Stats) { s.LateFrames++ })
	return nil
}

// onRows folds the units a rows frame reports. Nothing of the frame is
// read before the lease it names is found in the agent's hands: a late
// frame is counted and dropped unread. Then each unit is named by its
// slot, and only a slot of the lease that is still pending is read, at
// the width of the unit's span; a frame naming a slot outside the lease,
// one already folded or one already failed drops its agent, like a frame
// that does not parse at that width or whose statistics no prober run
// over the unit produces.
func (c *Coordinator) onRows(a *agentConn, payload []byte) {
	r := wireReader{b: payload}
	leaseID := r.uvarint()
	if r.bad {
		c.dropAgent(a, "malformed rows frame")
		return
	}
	l := c.heldLease(a, leaseID)
	if l == nil {
		return
	}
	sr := &c.rows
	for hint := 0; ; {
		slot := r.int()
		if r.bad {
			c.dropAgent(a, fmt.Sprintf("lease %d: malformed rows frame", leaseID))
			return
		}
		i := l.unit(slot, hint)
		if i < 0 {
			c.dropAgent(a, fmt.Sprintf("lease %d: rows name slot %d outside the lease", leaseID, slot))
			return
		}
		lu := &l.units[i]
		switch lu.state {
		case unitFolded:
			c.dropAgent(a, fmt.Sprintf("lease %d: rows repeat slot %d", leaseID, slot))
			return
		case unitFailed:
			c.dropAgent(a, fmt.Sprintf("lease %d: rows for slot %d, which the agent failed", leaseID, slot))
			return
		}
		u := lu.u
		if err := r.rowsUnit(sr, u.Span.Hi-u.Span.Lo); err != nil {
			c.dropAgent(a, fmt.Sprintf("lease %d: rows for slot %d: %v", leaseID, slot, err))
			return
		}
		// The fold sums the unit's statistics into the round unchecked:
		// a result that claims what no prober run over the unit produces
		// goes the same way.
		if err := sr.CheckStats(c.cfg.Census, u); err != nil {
			c.dropAgent(a, fmt.Sprintf("lease %d: rows for slot %d: %v", leaseID, slot, err))
			return
		}
		foldStart := time.Now()
		if err := c.round.sched.Done(u, sr); err != nil {
			// Done refuses before it mutates, so the campaign is intact;
			// the agent is speaking nonsense and goes.
			c.dropAgent(a, fmt.Sprintf("lease %d: fold of slot %d: %v", leaseID, slot, err))
			return
		}
		c.bump(func(s *Stats) { s.FramesFolded++ })
		c.foldSeconds.Load().ObserveSince(foldStart)
		lu.state = unitFolded
		l.pending--
		hint = i + 1
		if len(r.b) == 0 {
			break
		}
	}
	c.endIfSettled(l)
	c.dispatch()
	c.checkRoundDone()
}

func (c *Coordinator) onFail(a *agentConn, fail failMsg) {
	l := c.heldLease(a, fail.ID)
	if l == nil {
		return
	}
	i := l.unit(fail.Slot, 0)
	if i < 0 || l.units[i].state != unitPending {
		c.dropAgent(a, fmt.Sprintf("lease %d: fail for slot %d, which the lease does not hold pending", fail.ID, fail.Slot))
		return
	}
	l.units[i].state = unitFailed
	l.pending--
	c.failUnit(l.units[i].u, fail.Err)
	c.endIfSettled(l)
	c.dispatch()
	c.checkRoundDone()
}

// endIfSettled ends a lease none of whose units is pending.
func (c *Coordinator) endIfSettled(l *lease) {
	if l.pending == 0 {
		delete(c.round.leases, l.id)
		delete(l.agent.inflight, l.id)
	}
}

// failUnit reports a failed unit to the scheduler, which bumps the
// vantage point's attempt and parks or quarantines it; a unit that will
// be handed out again counts as a re-lease.
func (c *Coordinator) failUnit(u census.Unit, reason string) {
	if err := c.round.sched.Fail(u, errors.New(reason), time.Now()); err != nil {
		c.logf("cluster: %v", err)
		return
	}
	c.bump(func(s *Stats) { s.ReLeases++ })
}

// dropAgent removes an agent from the cluster and fails every unit of its
// leases it has not reported, so they re-lease elsewhere.
func (c *Coordinator) dropAgent(a *agentConn, reason string) {
	if a.dead {
		return
	}
	a.dead = true
	delete(c.agents, a.id)
	close(a.out)
	a.conn.Close()
	c.connMu.Lock()
	delete(c.conns, a.conn)
	c.connMu.Unlock()
	if a.ready {
		c.bump(func(s *Stats) { s.AgentsLost++ })
		c.logf("cluster: agent %q lost: %s", a.name, reason)
	}
	lost := a.inflight
	a.inflight = nil
	if r := c.round; r != nil {
		for _, l := range lost {
			delete(r.leases, l.id)
			for i := range l.units {
				if lu := &l.units[i]; lu.state == unitPending {
					lu.state = unitFailed
					c.failUnit(lu.u, fmt.Sprintf("agent %q lost: %s", a.name, reason))
				}
			}
		}
		c.dispatch()
		c.checkRoundDone()
	}
}

func (c *Coordinator) onTick() {
	now := time.Now()
	r := c.round
	if r == nil {
		return
	}
	// Expired leases mean a hung (not disconnected) agent: presume the
	// whole agent dead rather than re-lease around it, or it keeps
	// winning leases and burning the retry budget.
	var hung []*agentConn
	for _, l := range r.leases {
		if now.After(l.deadline) && !l.agent.dead {
			hung = append(hung, l.agent)
		}
	}
	for _, a := range hung {
		if !a.dead {
			c.bump(func(s *Stats) { s.Expired++ })
			c.dropAgent(a, "lease past deadline")
		}
	}
	live := 0
	for _, a := range c.agents {
		if a.ready && !a.dead {
			live++
		}
	}
	if live == 0 {
		if r.agentlessSince.IsZero() {
			r.agentlessSince = now
		} else if now.Sub(r.agentlessSince) > c.cfg.agentGrace() {
			r.aborted = fmt.Errorf("cluster: round %d: no agents for %v", r.round, c.cfg.agentGrace())
		}
	} else {
		r.agentlessSince = time.Time{}
	}
	c.checkRoundDone()
}

// dispatch leases runnable units — the scheduler keeps one outstanding
// per vantage point and holds back parked ones — to agents while any has
// spare capacity, the least-loaded first, batchLimit units to a lease.
// When only parked vantage points remain runnable, the wake timer is
// pointed at the earliest of them, unless it already fires sooner.
func (c *Coordinator) dispatch() {
	r := c.round
	if r == nil {
		return
	}
	now := time.Now()
	limit := 0
	for r.aborted == nil {
		a := c.pickAgent()
		if a == nil {
			return
		}
		if limit == 0 {
			limit = c.batchLimit(r)
		}
		c.batch = c.batch[:0]
		for len(c.batch) < limit {
			u, ok, wake := r.sched.Next(now)
			if !ok {
				if !wake.IsZero() && (c.wakeAt.IsZero() || wake.Before(c.wakeAt)) {
					c.wakeAt = wake
					c.wake.Reset(wake.Sub(now))
				}
				break
			}
			c.batch = append(c.batch, u)
		}
		if len(c.batch) == 0 {
			return
		}
		c.issueLease(r, a)
	}
}

// batchLimit is how many units a lease may carry: as many as fit
// ShardTargets cells (one when the round's spans are that wide), and no
// more than an even share of the round's open vantage points across the
// lease capacity of the fleet, so no agent takes more than its share. A
// connection still registering counts as one lease of capacity: the first
// agent of a fleet to say hello does not take the others' shares.
func (c *Coordinator) batchLimit(r *roundState) int {
	if r.fit <= 1 {
		return 1
	}
	capacity := 0
	for _, a := range c.agents {
		if !a.dead {
			capacity += max(a.capacity, 1)
		}
	}
	share := (r.sched.Open() + capacity - 1) / max(capacity, 1)
	return max(1, min(r.fit, share))
}

// pickAgent chooses the least-loaded ready agent with spare capacity; ties
// break on agent ID so placement is deterministic for a given membership
// state.
func (c *Coordinator) pickAgent() *agentConn {
	var best *agentConn
	for _, a := range c.agents {
		if !a.ready || a.dead || len(a.inflight) >= a.capacity {
			continue
		}
		if best == nil || len(a.inflight) < len(best.inflight) ||
			len(a.inflight) == len(best.inflight) && a.id < best.id {
			best = a
		}
	}
	return best
}

// issueLease leases the units in c.batch to a.
func (c *Coordinator) issueLease(r *roundState, a *agentConn) {
	c.leaseID++
	l := &lease{
		id:       c.leaseID,
		units:    make([]leasedUnit, len(c.batch)),
		pending:  len(c.batch),
		agent:    a,
		deadline: time.Now().Add(c.cfg.leaseTTL()),
	}
	for i, u := range c.batch {
		l.units[i].u = u
	}
	c.leaseBuf = appendLease(c.leaseBuf[:0], &leaseMsg{ID: l.id, Units: c.batch})
	r.leases[l.id] = l
	a.inflight[l.id] = l
	c.bump(func(s *Stats) { s.Leases++; s.Units += len(l.units) })
	c.send(a, appendFrame(nil, frameLease, c.leaseBuf))
}

func (c *Coordinator) checkRoundDone() {
	if r := c.round; r != nil && (r.aborted != nil || r.sched.Settled()) {
		c.finishRound(r)
	}
}

// finishRound closes the round on the campaign and wakes ExecuteRound.
func (c *Coordinator) finishRound(r *roundState) {
	c.round = nil
	c.wake.Stop()
	c.wakeAt = time.Time{}
	// Leases still out belong to an aborted round: their agents are free
	// for the next one, and whatever they report of it is late.
	for id, l := range r.leases {
		delete(l.agent.inflight, id)
	}
	sum, err := r.sched.Close(r.aborted)
	r.result <- roundResult{summary: sum, err: err}
}

// ExecuteRound runs one census round across the cluster, as the
// RoundExecutor Campaign.Drive runs for a fleet: it opens the round on the
// campaign, leases the scheduler's units to agents, and returns when the
// round settles (or aborts). The summary is the one
// Campaign.ExecuteRoundPipelined returns for the same round.
func (c *Coordinator) ExecuteRound(ctx context.Context, round uint64, vps []platform.VP) (census.RoundSummary, error) {
	result := make(chan roundResult, 1)
	c.post(func() { c.startRound(round, vps, result) })
	select {
	case res := <-result:
		return res.summary, res.err
	case <-ctx.Done():
		c.post(func() {
			if c.round != nil && c.round.result == result {
				c.round.aborted = ctx.Err()
				c.finishRound(c.round)
			}
		})
		res := <-result
		return res.summary, res.err
	case <-c.stopped:
		return census.RoundSummary{}, fmt.Errorf("cluster: coordinator closed")
	}
}

func (c *Coordinator) startRound(round uint64, vps []platform.VP, result chan roundResult) {
	fail := func(err error) {
		result <- roundResult{err: err}
	}
	if c.round != nil {
		fail(fmt.Errorf("cluster: round %d already executing", c.round.round))
		return
	}
	sched, err := c.cfg.Campaign.OpenRound(round, c.cfg.Targets, vps, c.cfg.ShardTargets)
	if err != nil {
		fail(err)
		return
	}
	fit := 1
	if n := len(c.cfg.Targets); n > 0 {
		width := census.PipelineConfig{SpanTargets: c.cfg.ShardTargets}.EffectiveSpanTargets()
		fit = width / min(width, n)
	}
	c.round = &roundState{
		round:  round,
		sched:  sched,
		leases: make(map[uint64]*lease),
		fit:    fit,
		result: result,
	}
	c.dispatch()
	c.checkRoundDone() // zero targets or zero VPs finish immediately
}

// shutdown runs on the loop goroutine when Close is called: the active
// round aborts, agents get a best-effort shutdown frame, and every
// outbound queue closes so the writers drain and exit.
func (c *Coordinator) shutdown() {
	c.wake.Stop()
	if r := c.round; r != nil {
		r.aborted = fmt.Errorf("cluster: coordinator closed")
		c.finishRound(r)
	}
	for _, a := range c.agents {
		if a.dead {
			continue
		}
		a.dead = true
		select {
		case a.out <- appendFrame(nil, frameShutdown):
		default:
		}
		close(a.out)
	}
	c.agents = map[int64]*agentConn{}
}

// Close stops the coordinator: the loop drains, agents are told to shut
// down, and every connection closes. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	c.connMu.Unlock()

	close(c.quit)
	<-c.stopped

	c.connMu.Lock()
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.conns = map[net.Conn]struct{}{}
	c.connMu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
	return nil
}
