package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
	"anycastmap/internal/prober"
)

// AgentConfig parametrizes RunAgent.
type AgentConfig struct {
	// Name identifies the agent to the coordinator.
	Name string
	// Capacity is how many leases execute concurrently; zero means 1.
	Capacity int
	// OwnedVPs advertises vantage-point affinity to the coordinator.
	OwnedVPs []int
	// World, when non-nil, is probed directly (in-process agents share
	// the coordinator's world); nil rebuilds the deterministic world
	// from the welcome message, which is what a real separate process
	// does. Both paths produce identical replies.
	World *netsim.World
	// ExitOnCrash makes an injected VP crash kill the whole agent
	// (connection dropped, RunAgent returns the crash) instead of
	// reporting a retryable lease failure — the PlanetLab node that
	// reboots rather than the prober that hiccups. The coordinator
	// re-leases the lost shards either way.
	ExitOnCrash bool
	// MaxFrame bounds inbound frames; zero means DefaultMaxFrame.
	MaxFrame int
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
	// every outbound frame is assembled in (Write has copied it out by
	// the time it returns).
	writeMu sync.Mutex
	wbuf    []byte

	world     *netsim.World
	targets   []netsim.IP
	blacklist *prober.Greylist
	ccfg      census.Config

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

// fail reports a lease the agent could not complete.
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
// configuration, then executes shard leases and streams rows back,
// heartbeating all the while.
func RunAgent(ctx context.Context, conn net.Conn, cfg AgentConfig) error {
	defer conn.Close()
	s := &agentSession{cfg: cfg, conn: conn}

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
	hello, err := encodeMsg(&helloMsg{Name: cfg.Name, Capacity: cfg.capacity(), OwnedVPs: cfg.OwnedVPs})
	if err != nil {
		return err
	}
	if err := s.send(frameHello, hello); err != nil {
		return fmt.Errorf("cluster: agent hello: %w", err)
	}
	if err := readMagic(conn); err != nil {
		return fmt.Errorf("cluster: agent handshake: %w", err)
	}
	typ, payload, err := readFrame(conn, cfg.MaxFrame)
	if err != nil {
		return fmt.Errorf("cluster: agent awaiting welcome: %w", err)
	}
	if typ == frameShutdown {
		return nil
	}
	if typ != frameWelcome {
		return fmt.Errorf("cluster: expected welcome, got frame type %d", typ)
	}
	var welcome welcomeMsg
	if err := decodeMsg(payload, &welcome); err != nil {
		return err
	}
	s.targets = welcome.Targets
	s.blacklist = prober.FromSnapshot(welcome.Blacklist)
	s.ccfg = welcome.Census
	if cfg.World != nil {
		s.world = cfg.World
	} else {
		w := netsim.New(welcome.World)
		if welcome.Faults != nil {
			plan, err := netsim.NewFaultPlan(*welcome.Faults)
			if err != nil {
				return err
			}
			w = w.WithFaults(plan)
		}
		s.world = w
	}

	// Heartbeats, until the session ends.
	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		every := welcome.Heartbeat
		if every <= 0 {
			every = time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.send(frameHeartbeat); err != nil {
					return
				}
			case <-hbDone:
				return
			}
		}
	}()

	// Lease executors: a small worker pool so Capacity leases probe
	// concurrently while the main goroutine keeps reading frames.
	leases := make(chan leaseMsg, 64)
	var wg sync.WaitGroup
	defer wg.Wait()     // after close(leases): drain in-flight executors
	defer close(leases) // runs first (LIFO)
	for i := 0; i < cfg.capacity(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range leases {
				s.executeLease(l)
			}
		}()
	}

	for {
		typ, payload, err := readFrame(conn, cfg.MaxFrame)
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
				// and failing the lease tells it so.
				if err := s.fail(failMsg{ID: l.ID, Err: "agent lease queue overflow"}); err != nil {
					return err
				}
			}
		case frameShutdown:
			return nil
		default:
			return fmt.Errorf("cluster: unexpected frame type %d from coordinator", typ)
		}
	}
}

// executeLease probes the leased span — through census.ProbeShard, the
// row builder the in-process executor uses, over a plan of the lease's
// own (the agent keeps no state between leases) — and streams the result
// (or the failure) back.
func (s *agentSession) executeLease(l leaseMsg) {
	if l.Lo < 0 || l.Hi < l.Lo || l.Hi > len(s.targets) {
		s.fail(failMsg{ID: l.ID, Err: fmt.Sprintf("lease span [%d,%d) outside %d targets", l.Lo, l.Hi, len(s.targets))})
		return
	}
	plan := prober.NewPlan(s.world, s.targets[l.Lo:l.Hi], s.blacklist)
	sr, err := census.ProbeShard(s.world, plan, s.ccfg, census.Unit{
		Round:   l.Round,
		VP:      l.VP,
		Slot:    l.Slot,
		Span:    census.Span{Lo: l.Lo, Hi: l.Hi},
		Attempt: l.Attempt,
	})
	if err != nil {
		var crash *netsim.VPCrashError
		isCrash := errors.As(err, &crash)
		if isCrash && s.cfg.ExitOnCrash {
			// The node "reboots": the whole agent dies with the VP.
			s.setFatal(fmt.Errorf("cluster: agent %q: %w", s.cfg.Name, err))
			s.conn.Close()
			return
		}
		s.fail(failMsg{ID: l.ID, Err: err.Error(), Crash: isCrash})
		return
	}
	frame, err := sr.Encode()
	if err != nil {
		s.fail(failMsg{ID: l.ID, Err: err.Error()})
		return
	}
	var id [binary.MaxVarintLen64]byte
	s.send(frameRows, binary.AppendUvarint(id[:0], l.ID), frame)
}
