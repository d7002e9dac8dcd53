package route

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/netsim"
	"anycastmap/internal/obs"
	"anycastmap/internal/store"
)

func testServer(t *testing.T, st *store.Store, m *Metrics) *Server {
	t.Helper()
	s, err := testServerAt("127.0.0.1:0", testEngine(t, st), m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testServerAt binds a two-listener server on addr.
func testServerAt(addr string, e *Engine, m *Metrics) (*Server, error) {
	return NewServer(ServerConfig{Addr: addr, Listeners: 2, Engine: e, Metrics: m})
}

// dialUDP opens a client socket to addr, closed when the test ends.
func dialUDP(t *testing.T, addr string) *net.UDPConn {
	t.Helper()
	c, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*net.UDPConn)
}

// waitCount waits for c to reach want and fails unless it lands on it
// exactly.
func waitCount(t *testing.T, name string, c *obs.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Value() < want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if got := c.Value(); got != want {
		t.Fatalf("%s = %d, want %d", name, got, want)
	}
}

func respID(resp []byte) uint16 { return uint16(resp[0])<<8 | uint16(resp[1]) }

// bareQuery is a query for svcPrefix without EDNS, so it routes by the
// client's UDP source address.
func bareQuery(t testing.TB, id uint16, qtype byte) []byte {
	t.Helper()
	name, err := EncodeName(nil, "10.10.0."+DefaultZone)
	if err != nil {
		t.Fatal(err)
	}
	p := append([]byte{byte(id >> 8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0}, name...)
	return append(p, 0, qtype, 0, classIN)
}

// exchange sends one query packet and returns the response.
func exchange(t *testing.T, addr string, pkt []byte) []byte {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp := make([]byte, 2048)
	n, err := conn.Read(resp)
	if err != nil {
		t.Fatalf("no response: %v", err)
	}
	return resp[:n]
}

func respRcode(resp []byte) int { return int(resp[3] & 0xf) }

func TestServerEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	s := testServer(t, testStore(t), m)
	if s.Listeners() < 1 {
		t.Fatalf("no listeners bound")
	}
	addr := s.Addr().String()

	// A query: NOERROR with one answer.
	pkt := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b0001))
	resp := exchange(t, addr, pkt)
	if rc := respRcode(resp); rc != RcodeNoError {
		t.Fatalf("A query rcode = %d", rc)
	}
	if an := int(resp[6])<<8 | int(resp[7]); an != 1 {
		t.Fatalf("ANCOUNT = %d", an)
	}

	// TXT query with an explicit policy label.
	pkt = buildQuery(t, svcPrefix, PolicyNearestReplica, qtypeTXT, netsim.Prefix24(0x0b0001))
	resp = exchange(t, addr, pkt)
	if !bytes.Contains(resp, []byte("policy=nearest-replica")) {
		t.Errorf("TXT answer missing policy: %q", resp)
	}

	// Unknown service prefix: NXDOMAIN.
	pkt = buildQuery(t, netsim.Prefix24(0xDEAD00), PolicyNone, qtypeA, netsim.Prefix24(0x0b0001))
	if rc := respRcode(exchange(t, addr, pkt)); rc != RcodeNXDomain {
		t.Errorf("unknown service rcode = %d", rc)
	}

	// No EDNS at all: the client prefix falls back to the UDP source
	// (127.0.0.1/24 here) and the query still routes.
	resp = exchange(t, addr, bareQuery(t, 0xabcd, qtypeA))
	if rc := respRcode(resp); rc != RcodeNoError {
		t.Errorf("no-EDNS query rcode = %d", rc)
	}

	// Closed-loop load through the real socket path: each query is read
	// until its own ID comes back or 2 s pass. Every one must be answered
	// and counted exactly once as received and once as decided.
	const load = 2000
	decided := func() (n uint64) {
		for _, c := range m.Answers {
			n += c.Value()
		}
		return n
	}
	queries0, decided0 := m.Queries.Value(), decided()
	c := dialUDP(t, addr)
	req, in := make([]byte, 0, 128), make([]byte, 2048)
	answered := 0
	for i := 0; i < load; i++ {
		id := uint16(i)
		req = AppendQuery(req[:0], id, svcPrefix, PolicyNone, testZone, qtypeA, netsim.Prefix24(0x0b0000+uint32(i%1024)))
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			n, err := c.Read(in)
			if err != nil {
				break
			}
			if n >= 2 && respID(in[:n]) == id {
				answered++
				break
			}
		}
	}
	if answered != load {
		t.Fatalf("%d of %d queries answered", answered, load)
	}
	if q, d := m.Queries.Value()-queries0, decided()-decided0; q != load || d != load {
		t.Fatalf("queries_total +%d, answers_total +%d, want +%d each", q, d, load)
	}

	// The metrics series saw the traffic.
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"anycastmap_route_queries_total",
		"anycastmap_route_answers_total",
		"anycastmap_route_answer_seconds",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %s:\n%s", want, text[:min(len(text), 400)])
		}
	}
}

func TestServerServfailBeforePublish(t *testing.T) {
	// A server over an empty store must SERVFAIL, not lie.
	s := testServer(t, store.New(store.Options{}), nil)
	pkt := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b0001))
	if rc := respRcode(exchange(t, s.Addr().String(), pkt)); rc != RcodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", rc)
	}
}

// padded returns a valid A query with the given ID, zero-padded to size
// bytes: DecodeQuery ignores trailing bytes, so only the socket path can
// tell that the datagram was longer than the server reads.
func padded(id uint16, size int) []byte {
	p := AppendQuery(nil, id, svcPrefix, PolicyNone, testZone, qtypeA, netsim.Prefix24(0x0b0001))
	return append(p, make([]byte, size-len(p))...)
}

// TestServerDropsOversizeDatagram: a datagram longer than maxDatagram is
// dropped and counted, not answered from its first bytes. The valid query
// sent after it on the same socket must be the first thing answered.
func TestServerDropsOversizeDatagram(t *testing.T) {
	m := NewMetrics(nil)
	s := testServer(t, testStore(t), m)
	c := dialUDP(t, s.Addr().String())
	for _, pkt := range [][]byte{
		padded(0x0bad, 3000),
		AppendQuery(nil, 0x600d, svcPrefix, PolicyNone, testZone, qtypeA, netsim.Prefix24(0x0b0001)),
	} {
		if _, err := c.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var in [4096]byte
	n, err := c.Read(in[:])
	if err != nil {
		t.Fatalf("no response: %v", err)
	}
	if id := respID(in[:n]); id != 0x600d {
		t.Fatalf("first answer has ID %#x (%d bytes), want the valid query's %#x", id, n, 0x600d)
	}
	waitCount(t, "queries", m.Queries, 2)
	waitCount(t, "dropped", m.Dropped, 1)
}

// TestServerBatchMixed writes a mixed burst of 64 datagrams from one
// socket before reading anything, so the listener takes them in batches:
// every answerable query must be answered exactly once under its own ID,
// the ECS-less ones routed by the source address, and the counters must
// equal the mix.
func TestServerBatchMixed(t *testing.T) {
	for _, tc := range []struct {
		network, addr string
		// client is the /24 an ECS-less query routes by: the source's, or
		// the zero prefix for a v6 source, which carries no v4 /24.
		client string
	}{
		{"udp4", "127.0.0.1:0", "client=127.0.0.0/24"},
		{"udp6", "[::1]:0", "client=0.0.0.0/24"},
	} {
		t.Run(tc.network, func(t *testing.T) {
			m := NewMetrics(nil)
			s, err := testServerAt(tc.addr, testEngine(t, testStore(t)), m)
			if err != nil {
				if tc.network == "udp6" {
					t.Skipf("no IPv6 loopback: %v", err)
				}
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			testBatchMixed(t, s, m, tc.client)
		})
	}
}

func testBatchMixed(t *testing.T, s *Server, m *Metrics, sourceClient string) {
	// want maps each answerable query's ID to its rcode and a string its
	// answer must carry.
	type expect struct {
		rcode int
		has   string
	}
	want := map[uint16]expect{}
	var dropped int
	c := dialUDP(t, s.Addr().String())
	const sent = 64
	for i := 0; i < sent; i++ {
		id := uint16(0x4000 + i)
		ecs := netsim.Prefix24(0x0b0001 + uint32(i))
		var pkt []byte
		switch i % 8 {
		case 0:
			pkt = AppendQuery(nil, id, svcPrefix, PolicyNone, testZone, qtypeA, ecs)
			want[id] = expect{RcodeNoError, ""}
		case 1:
			pkt = AppendQuery(nil, id, svcPrefix, PolicyNone, testZone, qtypeTXT, ecs)
			want[id] = expect{RcodeNoError, "client=" + ecs.String()}
		case 2: // runt: 1..11 bytes of a query
			pkt = AppendQuery(nil, id, svcPrefix, PolicyNone, testZone, qtypeA, ecs)[:1+i%(headerLen-1)]
			dropped++
		case 3: // a response: never answered
			pkt = AppendQuery(nil, id, svcPrefix, PolicyNone, testZone, qtypeA, ecs)
			pkt[2] |= 0x80
			dropped++
		case 4: // a qname that is a pointer loop
			pkt = []byte{byte(id >> 8), byte(id), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, headerLen, 0, 1, 0, 1}
			want[id] = expect{RcodeFormErr, ""}
		case 5:
			pkt = padded(id, 3000)
			dropped++
		case 6: // no EDNS: routed by the UDP source
			pkt = bareQuery(t, id, qtypeTXT)
			want[id] = expect{RcodeNoError, sourceClient}
		case 7: // a policy label
			pkt = AppendQuery(nil, id, svcPrefix, PolicyNearestReplica, testZone, qtypeA, ecs)
			want[id] = expect{RcodeNoError, ""}
		}
		if _, err := c.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}

	var in [4096]byte
	seen := map[uint16]bool{}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(seen) < len(want) {
		n, err := c.Read(in[:])
		if err != nil {
			t.Fatalf("%d of %d answers, then: %v", len(seen), len(want), err)
		}
		resp := in[:n]
		id := respID(resp)
		w, ok := want[id]
		switch {
		case !ok:
			t.Fatalf("answer to %#x, which should have been dropped", id)
		case seen[id]:
			t.Fatalf("%#x answered twice", id)
		case respRcode(resp) != w.rcode:
			t.Errorf("%#x: rcode %d, want %d", id, respRcode(resp), w.rcode)
		case !bytes.Contains(resp, []byte(w.has)):
			t.Errorf("%#x: answer %q lacks %q", id, resp, w.has)
		}
		seen[id] = true
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := c.Read(in[:]); err == nil {
		t.Fatalf("an extra %d-byte answer (ID %#x) after all %d", n, respID(in[:n]), len(want))
	}

	waitCount(t, "queries", m.Queries, sent)
	waitCount(t, "dropped", m.Dropped, uint64(dropped))
	rcodes := [numRcodes]uint64{}
	for _, w := range want {
		rcodes[w.rcode]++
	}
	for rc, n := range rcodes {
		if got := m.Rcodes[rc].Value(); got != n {
			t.Errorf("rcode %d counted %d, want %d", rc, got, n)
		}
	}
}

// mutate applies one to four seeded byte-level edits to a copy of seed:
// bit flips, boundary bytes, insertions, deletions and truncations.
func mutate(r *rand.Rand, seed []byte) []byte {
	p := append([]byte(nil), seed...)
	for edits := 1 + r.Intn(4); edits > 0; edits-- {
		if len(p) == 0 {
			p = append(p, byte(r.Intn(256)))
			continue
		}
		at := r.Intn(len(p))
		switch r.Intn(5) {
		case 0:
			p[at] ^= 1 << r.Intn(8)
		case 1:
			p[at] = []byte{0, 1, 0x3f, 0x40, 0x80, 0xc0, 0xff}[r.Intn(7)]
		case 2:
			p = append(p[:at], append([]byte{byte(r.Intn(256))}, p[at:]...)...)
		case 3:
			p = append(p[:at], p[min(len(p), at+1+r.Intn(8)):]...)
		case 4:
			p = p[:at]
		}
	}
	return p
}

// TestServerSurvivesFuzzFlood replays FuzzDecodeQuery's seeds and 10k
// seeded mutations of them as datagrams into a two-listener server, in
// windows small enough that the socket buffers never overflow. Every
// datagram must be counted, and the server must still answer afterwards.
func TestServerSurvivesFuzzFlood(t *testing.T) {
	m := NewMetrics(nil)
	s := testServer(t, testStore(t), m)
	addr := s.Addr().String()
	conns := []*net.UDPConn{dialUDP(t, addr), dialUDP(t, addr)}

	seeds := decodeQuerySeeds(t)
	pkts := append([][]byte(nil), seeds...)
	r := rand.New(rand.NewSource(26))
	for len(pkts) < len(seeds)+10_000 {
		pkts = append(pkts, mutate(r, seeds[r.Intn(len(seeds))]))
	}
	const window = 64
	for i, pkt := range pkts {
		if _, err := conns[i%len(conns)].Write(pkt); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if (i+1)%window == 0 {
			waitCount(t, "queries", m.Queries, uint64(i+1))
		}
	}
	waitCount(t, "queries", m.Queries, uint64(len(pkts)))

	pkt := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b0001))
	if rc := respRcode(exchange(t, addr, pkt)); rc != RcodeNoError {
		t.Fatalf("after the flood: rcode %d", rc)
	}
	if got := m.Queries.Value(); got != uint64(len(pkts))+1 {
		t.Fatalf("queries = %d, want %d", got, len(pkts)+1)
	}
}

// TestRespondZeroAllocsPerQuery pins the tentpole claim end to end: the
// full answer path — decode, decide, encode, metrics — performs zero
// heap allocations per query, for A and TXT, on heap and mapped
// snapshots.
func TestRespondZeroAllocsPerQuery(t *testing.T) {
	src := netip.MustParseAddrPort("192.0.2.1:5353")
	for _, st := range []struct {
		name string
		st   *store.Store
	}{{"heap", testStore(t)}, {"mapped", mappedStore(t)}} {
		e := testEngine(t, st.st)
		r, err := NewResponder(e, "", 30, NewMetrics(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		for _, qt := range []struct {
			name  string
			qtype uint16
		}{{"A", qtypeA}, {"TXT", qtypeTXT}} {
			pkt := buildQuery(t, svcPrefix, PolicyNone, qt.qtype, netsim.Prefix24(0x0b0001))
			sc := &Scratch{}
			if out := r.Respond(sc, pkt, src); out == nil || respRcode(out) != RcodeNoError {
				t.Fatalf("%s/%s: bad warmup response", st.name, qt.name)
			}
			got := testing.AllocsPerRun(200, func() {
				r.Respond(sc, pkt, src)
			})
			if got != 0 {
				t.Errorf("%s/%s: Respond = %.1f allocs/op, want 0", st.name, qt.name, got)
			}
		}
	}
}

// TestSwapUnderLoad publishes a dozen snapshot generations opened from
// files while workers hammer the answer path, then checks the serving
// invariant: no answer ever mixes fields from two versions. The version
// is encoded in the findings' ASN, so mixing is detectable from the
// answer alone. Run with -race to check the publish/decide interleaving.
func TestSwapUnderLoad(t *testing.T) {
	const versions = 12
	const asnBase = 64500
	dir := t.TempDir()

	st := store.New(store.Options{})
	// Version k serves ASN asnBase+k; Publish assigns versions 1..12 in
	// order.
	load := func(k int) *store.Snapshot {
		fs := []analysis.Finding{mkFinding(t, svcPrefix, asnBase+k, defaultReplicas)}
		path := filepath.Join(dir, fmt.Sprintf("v%d.snap", k))
		if err := store.SaveSnapshotFile(path, store.NewSnapshot(fs, nil, uint64(k), 1)); err != nil {
			t.Fatal(err)
		}
		snap, err := store.OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	st.Publish(load(1))

	e := testEngine(t, st)
	r, err := NewResponder(e, "", 30, nil)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var mixed atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	src := netip.MustParseAddrPort("192.0.2.1:5353")
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &Scratch{}
			for i := 0; !stop.Load(); i++ {
				client := netsim.Prefix24(uint32(0x0b0000) + uint32(i&1023))
				// Half the workers exercise the packet path, half the
				// engine directly (the latter sees Version and ASN
				// without parsing).
				if w%2 == 0 {
					ans, _ := e.Decide(client)
					if ans.Version == 0 {
						continue
					}
					served.Add(1)
					if ans.ASN != asnBase+int(ans.Version) {
						mixed.Add(1)
					}
				} else {
					pkt := buildQuery(t, svcPrefix, PolicyNone, qtypeA, client)
					if out := r.Respond(sc, pkt, src); out == nil || respRcode(out) != RcodeNoError {
						mixed.Add(1)
					} else {
						served.Add(1)
					}
				}
			}
		}(w)
	}

	for k := 2; k <= versions; k++ {
		time.Sleep(5 * time.Millisecond)
		if v := st.Publish(load(k)); v != uint64(k) {
			t.Errorf("publish %d assigned version %d", k, v)
		}
	}
	time.Sleep(10 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no queries served during the swaps")
	}
	if n := mixed.Load(); n != 0 {
		t.Fatalf("%d answers mixed snapshot versions (of %d served)", n, served.Load())
	}
	if got := st.Current().Version(); got != versions {
		t.Errorf("current version = %d, want %d", got, versions)
	}
}

// BenchmarkRespond measures the full per-packet answer path — decode,
// decide, encode — that each UDP listener runs between syscalls.
func BenchmarkRespond(b *testing.B) {
	e := testEngine(b, mappedStore(b))
	r, err := NewResponder(e, "", 30, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := netip.MustParseAddrPort("192.0.2.1:5353")
	var reqs [][]byte
	for i := 0; i < 1024; i++ {
		reqs = append(reqs, buildQuery(b, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(uint32(0x0b0000)+uint32(i))))
	}
	sc := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Respond(sc, reqs[i&1023], src)
	}
}
