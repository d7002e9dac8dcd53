package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
)

// AgentConfig parametrizes RunAgent.
type AgentConfig struct {
	// Name identifies the agent to the coordinator.
	Name string
	// Capacity is how many leases execute concurrently; zero means 1.
	Capacity int
	// World, when non-nil, is probed directly (in-process agents share
	// the coordinator's world); nil rebuilds the deterministic world
	// from the welcome message, which is what a real separate process
	// does. Both paths produce identical replies.
	World *netsim.World
	// ExitOnCrash makes an injected VP crash kill the whole agent
	// (connection dropped, RunAgent returns the crash) instead of
	// reporting a retryable lease failure — the PlanetLab node that
	// reboots rather than the prober that hiccups. The coordinator
	// re-leases the lost units either way.
	ExitOnCrash bool
}

func (c AgentConfig) capacity() int {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return 1
}

// agentSession is the mutable state of one RunAgent call.
type agentSession struct {
	cfg  AgentConfig
	conn net.Conn

	// writeMu serializes frames onto conn and guards wbuf, the buffer
	// every outbound frame but rows is assembled in (Write has copied it
	// out by the time it returns).
	writeMu sync.Mutex
	wbuf    []byte

	world   *netsim.World
	targets []netsim.IP
	ccfg    census.Config
	// plans holds the current round's span plans, shared by every unit
	// of a span in that round.
	plans *census.SpanPlans

	// fatal latches the error that should kill the agent (ExitOnCrash);
	// the read loop surfaces it instead of the conn-closed error that
	// follows.
	fatalMu sync.Mutex
	fatal   error
}

func (s *agentSession) send(typ byte, parts ...[]byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.wbuf = appendFrame(s.wbuf[:0], typ, parts...)
	_, err := s.conn.Write(s.wbuf)
	return err
}

// fail reports a unit the agent could not complete.
func (s *agentSession) fail(f failMsg) error {
	return s.send(frameFail, appendFail(nil, &f))
}

func (s *agentSession) setFatal(err error) {
	s.fatalMu.Lock()
	if s.fatal == nil {
		s.fatal = err
	}
	s.fatalMu.Unlock()
}

func (s *agentSession) getFatal() error {
	s.fatalMu.Lock()
	defer s.fatalMu.Unlock()
	return s.fatal
}

// RunAgent speaks the agent side of the census protocol on conn until
// the coordinator sends a shutdown frame (returns nil), the context is
// cancelled, the connection breaks, or — under ExitOnCrash — a vantage
// point crashes mid-shard. It registers, receives the world and census
// configuration, then executes leases and streams their rows back.
func RunAgent(ctx context.Context, conn net.Conn, cfg AgentConfig) error {
	return (&agentSession{cfg: cfg, conn: conn}).run(ctx)
}

func (s *agentSession) run(ctx context.Context) error {
	conn, cfg := s.conn, s.cfg
	defer conn.Close()

	// Unblock the read loop when the caller gives up.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stopWatch:
		}
	}()

	// Handshake: magic both ways, then hello, then welcome. The peer's
	// magic is read after ours is written — net.Pipe has no buffer, and
	// the coordinator writes its magic from a dedicated goroutine.
	if _, err := conn.Write([]byte(streamMagic)); err != nil {
		return fmt.Errorf("cluster: agent handshake: %w", err)
	}
	if err := s.send(frameHello, appendHello(nil, &helloMsg{Name: cfg.Name, Capacity: cfg.capacity()})); err != nil {
		return fmt.Errorf("cluster: agent hello: %w", err)
	}
	fr := newFrameReader(conn, DefaultMaxFrame)
	if err := readMagic(fr.r); err != nil {
		return fmt.Errorf("cluster: agent handshake: %w", err)
	}
	typ, payload, err := fr.next()
	if err != nil {
		return fmt.Errorf("cluster: agent awaiting welcome: %w", err)
	}
	if typ == frameShutdown {
		return nil
	}
	if typ != frameWelcome {
		return fmt.Errorf("cluster: expected welcome, got frame type %d", typ)
	}
	welcome, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	s.targets = welcome.Targets
	s.ccfg = census.Config{Rate: welcome.Head.Rate, Seed: welcome.Head.Seed}
	if cfg.World != nil {
		s.world = cfg.World
	} else {
		w := netsim.New(welcome.Head.World)
		if welcome.Head.Faults != nil {
			plan, err := netsim.NewFaultPlan(*welcome.Head.Faults)
			if err != nil {
				return err
			}
			w = w.WithFaults(plan)
		}
		s.world = w
	}
	s.plans = census.NewSpanPlans(s.world, s.targets, welcome.Blacklist)

	// Lease executors: a small worker pool so Capacity leases probe
	// concurrently while the main goroutine keeps reading frames. Each
	// executor assembles its rows frames in a buffer of its own.
	leases := make(chan leaseMsg, 64)
	var wg sync.WaitGroup
	defer wg.Wait()     // after close(leases): drain in-flight executors
	defer close(leases) // runs first (LIFO)
	for i := 0; i < cfg.capacity(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for l := range leases {
				buf = s.executeLease(l, buf[:0])
			}
		}()
	}

	for {
		typ, payload, err := fr.next()
		if err != nil {
			if fatal := s.getFatal(); fatal != nil {
				return fatal
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("cluster: agent %q: %w", cfg.Name, err)
		}
		switch typ {
		case frameLease:
			l, err := decodeLease(payload)
			if err != nil {
				return err
			}
			select {
			case leases <- l:
			default:
				// The coordinator never exceeds our advertised
				// capacity; an overflowing queue means it is confused,
				// and failing the lease's units tells it so.
				for _, u := range l.Units {
					if err := s.fail(failMsg{ID: l.ID, Slot: u.Slot, Err: "agent lease queue overflow"}); err != nil {
						return err
					}
				}
			}
		case frameShutdown:
			return nil
		default:
			return fmt.Errorf("cluster: unexpected frame type %d from coordinator", typ)
		}
	}
}

// executeLease probes a lease's units back to back — each through
// census.ProbeShard, the row builder the in-process executor uses, over
// its span's plan for the lease's round (the one state the agent keeps
// between leases) — and returns their rows in one frame, assembled in buf,
// which it hands back for the next lease. A unit that fails is reported
// by its own fail frame at once, so the coordinator starts the vantage
// point's backoff while the rest of the lease runs.
func (s *agentSession) executeLease(l leaseMsg, buf []byte) []byte {
	buf = beginRowsFrame(buf, l.ID)
	empty := len(buf)
	var sr census.ShardRows // each unit's result, encoded into buf before the next
	for _, u := range l.Units {
		err := s.probeUnit(u, &sr)
		if err == nil {
			buf = appendRowsUnit(buf, u.Slot, &sr)
			continue
		}
		var crash *netsim.VPCrashError
		isCrash := errors.As(err, &crash)
		if isCrash && s.cfg.ExitOnCrash {
			// The node "reboots": the whole agent dies with the VP, and
			// the lease's unreported units with it.
			s.setFatal(fmt.Errorf("cluster: agent %q: %w", s.cfg.Name, err))
			s.conn.Close()
			return buf
		}
		s.fail(failMsg{ID: l.ID, Slot: u.Slot, Err: err.Error(), Crash: isCrash})
	}
	if len(buf) == empty {
		return buf
	}
	// One Write, like every other frame; a failed Write is a dead
	// connection, which the read loop reports.
	buf = endRowsFrame(buf, 0)
	s.writeMu.Lock()
	s.conn.Write(buf)
	s.writeMu.Unlock()
	return buf
}

// probeUnit probes one unit of a lease into sr.
func (s *agentSession) probeUnit(u census.Unit, sr *census.ShardRows) error {
	if u.Span.Hi > len(s.targets) {
		return fmt.Errorf("lease span [%d,%d) outside %d targets", u.Span.Lo, u.Span.Hi, len(s.targets))
	}
	return census.ProbeShard(s.world, s.plans.Plan(u.Round, u.Span), s.ccfg, u, sr)
}
