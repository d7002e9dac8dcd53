package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
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

	// ShardTargets is the lease width in targets; non-positive means
	// census.DefaultSpanTargets, as for the in-process executor.
	ShardTargets int
	// LeaseTTL is how long an agent may hold a lease before the
	// coordinator presumes it dead; expiry drops the whole agent (its
	// other leases fail with it). Zero means 30s.
	LeaseTTL time.Duration
	// HeartbeatEvery is the liveness interval announced to agents.
	// Zero means 1s.
	HeartbeatEvery time.Duration
	// AgentGrace is how long a round may sit with zero registered
	// agents before it aborts. Zero means 30s.
	AgentGrace time.Duration
	// Tick is the internal maintenance interval: lease expiry and the
	// agentless grace. (Backoff release is not on it; a parked vantage
	// point wakes the loop by its own timer.) Zero means 25ms.
	Tick time.Duration
	// MaxFrame bounds inbound frames; zero means DefaultMaxFrame.
	MaxFrame int
	// Log, when non-nil, receives operational events.
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the same events as Stats plus the
	// shard-fold latency histogram, for /metrics exposition.
	Metrics *Metrics
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 30 * time.Second
}

func (c Config) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery > 0 {
		return c.HeartbeatEvery
	}
	return time.Second
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
type Stats struct {
	AgentsJoined int
	AgentsLost   int
	Leases       int
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
	owned    map[int]bool
	ready    bool
	dead     bool
	inflight map[uint64]*lease
}

// lease is one scheduler unit in an agent's hands.
type lease struct {
	id       uint64
	u        census.Unit
	agent    *agentConn
	deadline time.Time
}

type roundResult struct {
	summary census.RoundSummary
	err     error
}

// roundState is the in-flight round: the campaign's scheduler decides
// what runs, retries and quarantines; the coordinator keeps only who
// holds which unit and until when.
type roundState struct {
	round          uint64
	sched          *census.RoundSched
	leases         map[uint64]*lease
	start          time.Time
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
	wake     *time.Timer
	wakeAt   time.Time
	leaseBuf []byte // scratch for the lease payload being framed

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	statsMu sync.Mutex
	stats   Stats
}

// NewCoordinator builds the coordinator and starts its loop. Close it
// when done.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Campaign == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a campaign")
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	var snap map[netsim.IP]netsim.ReplyKind
	if cfg.Blacklist != nil {
		snap = cfg.Blacklist.Snapshot()
	}
	payload, err := encodeMsg(&welcomeMsg{
		World:     cfg.World,
		Faults:    cfg.Faults,
		Census:    cfg.Census,
		Targets:   cfg.Targets,
		Blacklist: snap,
		Heartbeat: cfg.heartbeatEvery(),
	})
	if err != nil {
		return nil, err
	}
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

	c.wg.Add(2)
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
	if err := readMagic(a.conn); err != nil {
		return err
	}
	for {
		typ, payload, err := readFrame(a.conn, c.cfg.MaxFrame)
		if err != nil {
			return err
		}
		switch typ {
		case frameHello:
			var hello helloMsg
			if err := decodeMsg(payload, &hello); err != nil {
				return err
			}
			c.post(func() { c.onHello(a, hello) })
		case frameRows:
			id, frame, err := splitRowsPayload(payload)
			if err != nil {
				return err
			}
			sr, err := census.DecodeShardRows(frame)
			if err != nil {
				return fmt.Errorf("cluster: agent %q sent a bad shard frame: %w", a.name, err)
			}
			c.post(func() { c.onRows(a, id, sr) })
		case frameFail:
			fail, err := decodeFail(payload)
			if err != nil {
				return err
			}
			c.post(func() { c.onFail(a, fail) })
		case frameHeartbeat:
			// Proof the agent's writer is alive, nothing more: a lease
			// ends by its rows, its fail, LeaseTTL or a dead connection.
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
	a.owned = make(map[int]bool, len(hello.OwnedVPs))
	for _, id := range hello.OwnedVPs {
		a.owned[id] = true
	}
	a.ready = true
	c.bump(func(s *Stats) { s.AgentsJoined++ })
	c.cfg.Metrics.joined()
	c.logf("cluster: agent %q joined (capacity %d)", a.name, a.capacity)
	c.send(a, c.welcome)
	if c.round != nil {
		c.round.agentlessSince = time.Time{}
		c.dispatch()
	}
}

func (c *Coordinator) onRows(a *agentConn, leaseID uint64, sr *census.ShardRows) {
	if a.dead {
		return
	}
	r := c.round
	if r == nil {
		c.bump(func(s *Stats) { s.LateFrames++ })
		c.cfg.Metrics.late()
		return
	}
	l, ok := r.leases[leaseID]
	if !ok || l.agent != a {
		// The lease expired (its agent was presumed dead and the shard
		// re-leased) or belongs to another connection: the fold already
		// happened or will happen elsewhere, and folding twice would be
		// harmless but the accounting would double. Drop it.
		c.bump(func(s *Stats) { s.LateFrames++ })
		c.cfg.Metrics.late()
		return
	}
	u := l.u
	if sr.Round != r.round || sr.Lo != u.Span.Lo || sr.Hi != u.Span.Hi ||
		len(sr.Slots) != 1 || sr.Slots[0] != u.Slot || len(sr.RTTus) != 1 {
		c.dropAgent(a, fmt.Sprintf("shard frame disagrees with lease %d", leaseID))
		return
	}
	foldStart := time.Now()
	if err := r.sched.Done(u, sr); err != nil {
		// The fold validates before mutating, so the campaign is intact;
		// the agent is speaking nonsense and goes.
		c.dropAgent(a, fmt.Sprintf("fold of lease %d: %v", leaseID, err))
		return
	}
	c.bump(func(s *Stats) { s.FramesFolded++ })
	c.cfg.Metrics.folded(time.Since(foldStart))

	delete(r.leases, leaseID)
	delete(a.inflight, leaseID)
	c.dispatch()
	c.checkRoundDone()
}

func (c *Coordinator) onFail(a *agentConn, fail failMsg) {
	if a.dead {
		return
	}
	r := c.round
	if r == nil {
		c.bump(func(s *Stats) { s.LateFrames++ })
		c.cfg.Metrics.late()
		return
	}
	l, ok := r.leases[fail.ID]
	if !ok || l.agent != a {
		c.bump(func(s *Stats) { s.LateFrames++ })
		c.cfg.Metrics.late()
		return
	}
	delete(r.leases, fail.ID)
	delete(a.inflight, fail.ID)
	c.failLease(l, fail.Err)
	c.dispatch()
	c.checkRoundDone()
}

// failLease reports a failed lease to the scheduler, which bumps the
// vantage point's attempt and parks or quarantines it; a unit that will
// be handed out again counts as a re-lease.
func (c *Coordinator) failLease(l *lease, reason string) {
	if err := c.round.sched.Fail(l.u, errors.New(reason), time.Now()); err != nil {
		c.logf("cluster: %v", err)
		return
	}
	c.bump(func(s *Stats) { s.ReLeases++ })
	c.cfg.Metrics.reLease()
}

// dropAgent removes an agent from the cluster and fails its in-flight
// leases so their shards re-lease elsewhere.
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
		c.cfg.Metrics.lost()
		c.logf("cluster: agent %q lost: %s", a.name, reason)
	}
	lost := make([]*lease, 0, len(a.inflight))
	for _, l := range a.inflight {
		lost = append(lost, l)
	}
	a.inflight = nil
	if r := c.round; r != nil {
		for _, l := range lost {
			delete(r.leases, l.id)
			c.failLease(l, fmt.Sprintf("agent %q lost: %s", a.name, reason))
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
			c.cfg.Metrics.expired()
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
// spare capacity: owner-affinity first, least-loaded otherwise. When
// capacity is left and only parked vantage points remain, the wake timer
// is pointed at the earliest of them, unless it already fires sooner.
func (c *Coordinator) dispatch() {
	r := c.round
	if r == nil {
		return
	}
	now := time.Now()
	for r.aborted == nil && c.pickAgent(-1) != nil {
		u, ok, wake := r.sched.Next(now)
		if !ok {
			if !wake.IsZero() && (c.wakeAt.IsZero() || wake.Before(c.wakeAt)) {
				c.wakeAt = wake
				c.wake.Reset(wake.Sub(now))
			}
			return
		}
		c.issueLease(r, u, c.pickAgent(u.VP.ID))
	}
}

// pickAgent chooses the least-loaded ready agent with spare capacity,
// preferring one that owns the vantage point; ties break on agent ID so
// placement is deterministic for a given membership state.
func (c *Coordinator) pickAgent(vpID int) *agentConn {
	var best *agentConn
	better := func(a, b *agentConn) bool {
		if b == nil {
			return true
		}
		ao, bo := a.owned[vpID], b.owned[vpID]
		if ao != bo {
			return ao
		}
		if len(a.inflight) != len(b.inflight) {
			return len(a.inflight) < len(b.inflight)
		}
		return a.id < b.id
	}
	for _, a := range c.agents {
		if !a.ready || a.dead || len(a.inflight) >= a.capacity {
			continue
		}
		if better(a, best) {
			best = a
		}
	}
	return best
}

func (c *Coordinator) issueLease(r *roundState, u census.Unit, a *agentConn) {
	c.leaseID++
	l := &lease{
		id:       c.leaseID,
		u:        u,
		agent:    a,
		deadline: time.Now().Add(c.cfg.leaseTTL()),
	}
	c.leaseBuf = appendLease(c.leaseBuf[:0], &leaseMsg{
		ID:      l.id,
		Round:   u.Round,
		Attempt: u.Attempt,
		Slot:    u.Slot,
		VP:      u.VP,
		Lo:      u.Span.Lo,
		Hi:      u.Span.Hi,
	})
	r.leases[l.id] = l
	a.inflight[l.id] = l
	c.bump(func(s *Stats) { s.Leases++ })
	c.cfg.Metrics.lease()
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
	sum, err := r.sched.Close(r.aborted)
	sum.Duration = time.Since(r.start)
	r.result <- roundResult{summary: sum, err: err}
}

// ExecuteRound runs one census round across the cluster: it opens the
// round on the campaign, leases the scheduler's units to agents, and
// returns when the round settles (or aborts). The summary is the one
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
	c.round = &roundState{
		round:  round,
		sched:  sched,
		leases: make(map[uint64]*lease),
		start:  time.Now(),
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
