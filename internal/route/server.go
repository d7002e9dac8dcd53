package route

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anycastmap/internal/netsim"
)

// Responder is the complete per-packet answer path — decode, decide,
// encode — over one engine. It is the unit the benchmarks measure and
// the zero-alloc test pins: Respond touches only the caller's Scratch.
type Responder struct {
	engine  *Engine
	zone    []byte
	ttl     uint32
	metrics *Metrics
}

// NewResponder builds the answer path for a zone (empty = DefaultZone)
// with the given answer TTL (0 = 30s). metrics may be nil.
func NewResponder(e *Engine, zone string, ttl uint32, m *Metrics) (*Responder, error) {
	if zone == "" {
		zone = DefaultZone
	}
	wire, err := EncodeName(nil, zone)
	if err != nil {
		return nil, err
	}
	if ttl == 0 {
		ttl = 30
	}
	return &Responder{engine: e, zone: wire, ttl: ttl, metrics: m}, nil
}

// Respond answers one request packet using the worker's scratch. The
// returned slice aliases sc.resp (valid until the next Respond on the
// same scratch); nil means drop. src supplies the client prefix when
// the query carries no EDNS Client Subnet option.
func (r *Responder) Respond(sc *Scratch, pkt []byte, src netip.AddrPort) []byte {
	var start time.Time
	if r.metrics != nil {
		start = time.Now()
	}
	r.metrics.query()
	rcode, ok := DecodeQuery(sc, pkt, r.zone)
	if !ok {
		r.metrics.dropped()
		return nil
	}
	if rcode != RcodeNoError {
		r.metrics.answered(PolicyNone, rcode)
		return EncodeError(sc, rcode)
	}

	client := sc.q.ECS
	if !sc.q.HasECS {
		a := src.Addr()
		if a.Is4In6() {
			a = a.Unmap()
		}
		if a.Is4() {
			b := a.As4()
			client = netsim.IP(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])).Prefix()
		}
	}

	ans, policy := r.engine.DecideForCached(sc, client, sc.q.Service, sc.q.Policy)
	var out []byte
	switch {
	case ans.Version == 0:
		// No snapshot yet: the daemon is starting. SERVFAIL tells the
		// client to retry rather than caching a lie.
		rcode = RcodeServFail
		out = EncodeError(sc, rcode)
	case !ans.Anycast:
		rcode = RcodeNXDomain
		out = EncodeError(sc, rcode)
	default:
		rcode = RcodeNoError
		out = EncodeAnswer(sc, &ans, policy, r.ttl)
	}
	r.metrics.answered(policy, rcode)
	if r.metrics != nil {
		r.metrics.Latency.ObserveSince(start)
	}
	return out
}

// truncated counts a datagram longer than maxDatagram: it was received,
// and it is dropped, since its first bytes may decode as a query the
// client never asked.
func (r *Responder) truncated() {
	r.metrics.query()
	r.metrics.dropped()
}

// maxDatagram is the longest request a listener reads. The server
// advertises an EDNS size of 1232, so no query it should answer comes
// near it; a longer datagram arrives truncated and is dropped.
const maxDatagram = 2048

// ServerConfig wires a Server.
type ServerConfig struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:5300" (port 0
	// picks one; Addr() reports it).
	Addr string
	// Listeners is the number of SO_REUSEPORT sockets sharing the port,
	// each served by its own goroutine with its own Scratch. 0 means
	// GOMAXPROCS; a negative count is refused. Platforms without
	// SO_REUSEPORT fall back to 1.
	Listeners int
	// Engine makes the decisions. Required.
	Engine *Engine
	// Zone is the served suffix (empty = DefaultZone); TTL the answer
	// TTL in seconds (0 = 30).
	Zone string
	TTL  uint32
	// Metrics receives the anycastmap_route_* series; may be nil.
	Metrics *Metrics
}

// Server owns N SO_REUSEPORT UDP listeners over one Responder. The
// kernel hashes flows across the sockets, so the packet path shards
// across GOMAXPROCS without a userspace dispatcher. Each listener's serve
// loop lives beside its socket calls: on linux/amd64 and linux/arm64,
// sock_linux.go reads and answers a batch of datagrams per pair of
// syscalls; every other target runs sock_other.go's loop of one read and
// one write per datagram. Both answer each datagram with Respond on the
// listener's one Scratch and allocate nothing per packet.
type Server struct {
	responder *Responder
	conns     []*net.UDPConn
	wg        sync.WaitGroup
	closed    atomic.Bool
}

// Validate reports the first setting no server can mean, or nil: a
// negative Listeners (zero means GOMAXPROCS). NewServer refuses what it
// refuses, so a caller taking the count from its user can check it before
// it builds the Engine.
func (c ServerConfig) Validate() error {
	if c.Listeners < 0 {
		return fmt.Errorf("route: ServerConfig.Listeners is %d; want a count of sockets, or 0 for GOMAXPROCS", c.Listeners)
	}
	return nil
}

// NewServer binds the listeners and starts the serve goroutines.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("route: ServerConfig.Engine is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r, err := NewResponder(cfg.Engine, cfg.Zone, cfg.TTL, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	n := cfg.Listeners
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	lc := net.ListenConfig{Control: reusePortControl}
	first, err := lc.ListenPacket(context.Background(), "udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("route: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{responder: r, conns: []*net.UDPConn{first.(*net.UDPConn)}}
	// Port 0 resolves at the first bind; the rest bind the actual port.
	actual := first.LocalAddr().String()
	for i := 1; i < n; i++ {
		c, err := lc.ListenPacket(context.Background(), "udp", actual)
		if err != nil {
			break // no SO_REUSEPORT here: serve with what bound
		}
		s.conns = append(s.conns, c.(*net.UDPConn))
	}
	for _, c := range s.conns {
		s.wg.Add(1)
		go s.serve(c)
	}
	return s, nil
}

// Addr returns the bound address of the first listener.
func (s *Server) Addr() net.Addr { return s.conns[0].LocalAddr() }

// Listeners returns how many sockets actually bound.
func (s *Server) Listeners() int { return len(s.conns) }

// Close stops every listener and waits for the serve goroutines.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	for _, c := range s.conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}
