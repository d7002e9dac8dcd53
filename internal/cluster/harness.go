package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// HarnessConfig parametrizes an in-process agent fleet for tests,
// smokes, and census -local.
type HarnessConfig struct {
	// Agents is the fleet size.
	Agents int
	// Transport is "pipe" (net.Pipe, default) or "tcp" (real loopback
	// sockets through the coordinator's listener).
	Transport string
	// Agent is the per-agent template; Name is overridden with the
	// agent's index.
	Agent AgentConfig
	// Respawn restarts an agent that died (crash, injected churn, lost
	// connection) with a fresh connection, as a supervisor would.
	Respawn bool
	// KillAfterFrames, when positive, injects churn: each agent's
	// connection is severed after it has streamed that many row frames,
	// simulating a process that dies mid-census. Combine with Respawn
	// for a fleet that keeps losing and replacing members.
	KillAfterFrames int
}

// Harness runs N agents against a coordinator inside one process: over
// net.Pipe for fully deterministic tests, or over real TCP loopback
// sockets to exercise the same protocol end to end.
type Harness struct {
	coord *Coordinator
	cfg   HarnessConfig
	ln    net.Listener

	mu      sync.Mutex
	closing bool
	deaths  int

	wg sync.WaitGroup
}

// NewHarness starts the fleet. Agents connect (and respawn) until Close.
func NewHarness(coord *Coordinator, cfg HarnessConfig) (*Harness, error) {
	if cfg.Agents <= 0 {
		return nil, fmt.Errorf("cluster: harness needs at least one agent")
	}
	h := &Harness{coord: coord, cfg: cfg}
	switch cfg.Transport {
	case "", "pipe":
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		h.ln = ln
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			coord.Serve(ln)
		}()
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q", cfg.Transport)
	}
	for i := 0; i < cfg.Agents; i++ {
		h.startAgent(i)
	}
	return h, nil
}

// Deaths reports how many times an agent died (and, with Respawn, was
// replaced) outside of harness shutdown.
func (h *Harness) Deaths() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deaths
}

func (h *Harness) dial() (net.Conn, error) {
	if h.ln != nil {
		return net.Dial("tcp", h.ln.Addr().String())
	}
	coordSide, agentSide := net.Pipe()
	if err := h.coord.Attach(coordSide); err != nil {
		agentSide.Close()
		return nil, err
	}
	return agentSide, nil
}

func (h *Harness) startAgent(i int) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			h.mu.Lock()
			closing := h.closing
			h.mu.Unlock()
			if closing {
				return
			}
			conn, err := h.dial()
			if err != nil {
				return // coordinator gone
			}
			if h.cfg.KillAfterFrames > 0 {
				conn = &killAfter{Conn: conn, left: h.cfg.KillAfterFrames}
			}
			acfg := h.cfg.Agent
			acfg.Name = fmt.Sprintf("%s-%d", agentBaseName(h.cfg.Agent.Name), i)
			err = RunAgent(context.Background(), conn, acfg)
			h.mu.Lock()
			closing = h.closing
			if err != nil && !closing {
				h.deaths++
			}
			h.mu.Unlock()
			if err == nil || closing || !h.cfg.Respawn {
				return
			}
		}
	}()
}

func agentBaseName(name string) string {
	if name == "" {
		return "agent"
	}
	return name
}

// Close tears the fleet down: the coordinator closes (agents see
// shutdown frames or dead connections) and every agent goroutine is
// reaped. Deaths during shutdown do not count.
func (h *Harness) Close() error {
	h.mu.Lock()
	if h.closing {
		h.mu.Unlock()
		h.wg.Wait()
		return nil
	}
	h.closing = true
	h.mu.Unlock()
	if h.ln != nil {
		h.ln.Close()
	}
	err := h.coord.Close()
	h.wg.Wait()
	return err
}

// killAfter severs a connection after the Nth row frame written through
// it: deterministic agent churn, keyed to completed work rather than
// wall time. Frames are written as single buffers, so the type byte sits
// at a fixed offset of every Write.
type killAfter struct {
	net.Conn
	mu   sync.Mutex
	left int
	dead bool
}

var errInjectedDeath = errors.New("cluster: injected agent death")

func (k *killAfter) Write(b []byte) (int, error) {
	k.mu.Lock()
	if k.dead {
		k.mu.Unlock()
		return 0, errInjectedDeath
	}
	if len(b) > 4 && b[4] == frameRows {
		k.left--
		if k.left < 0 {
			k.dead = true
			k.mu.Unlock()
			k.Conn.Close()
			return 0, errInjectedDeath
		}
	}
	k.mu.Unlock()
	return k.Conn.Write(b)
}
