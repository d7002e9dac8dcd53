package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/route"
)

// loadgen.go — the benchmark's own traffic generators. internal/route's
// generator times open-loop queries from the actual send (hiding the wait
// a stall imposes on later queries), shares its send-time ring between
// goroutines without atomics, and cannot be edited from here. These are:
//
//   - a UDP closed loop with a per-connection window of outstanding
//     queries (window 1 measures round trips, a wider one saturates);
//   - a UDP open loop that sends on a fixed schedule, times each answer
//     from when its query was due, reports how late it sent, and waits on
//     neither timers nor the netpoller;
//   - an HTTP/1.1 keep-alive closed loop;
//   - a ceiling calibration: the closed loop against a UDP echo that does
//     no work, which bounds what this generator can offer on this box.

const (
	qtypeA   = 1
	qtypeTXT = 16
	// optTail is what route.AppendQuery appends after the question: a
	// root owner name plus a 21-byte OPT record carrying the ECS option.
	optTail = 22
	// answerRR is the fixed part of an answer record before its RDATA:
	// compressed owner (2), type, class (4), TTL (4), RDLENGTH (2).
	answerRR = 12

	udpTimeout  = time.Second
	httpTimeout = 2 * time.Second
)

// picker draws question or address indices: Zipf-skewed or uniform.
type picker struct {
	r *rand.Rand
	z *rand.Zipf
	n int
}

func newPicker(seed uint64, n int, zipf bool) *picker {
	p := &picker{r: rand.New(rand.NewSource(int64(seed))), n: n}
	if zipf {
		p.z = rand.NewZipf(p.r, zipfSkew, 1, uint64(n-1))
	}
	return p
}

func (p *picker) next() int {
	if p.z != nil {
		return int(p.z.Uint64())
	}
	return p.r.Intn(p.n)
}

// questionTable holds the workload's distinct DNS questions as prebuilt
// A-query packets, so a generator's per-query work is one copy and a
// three-byte patch (ID, qtype).
type questionTable struct {
	arena   []byte
	off     []uint32
	client  []netsim.Prefix24
	service []netsim.Prefix24
}

// buildQuestions draws n questions: client i cycles through the client
// range, its service is a seeded draw over the first maxServices
// services (0 = all of them).
func buildQuestions(n, clients, maxServices int, services []netsim.Prefix24, seed uint64) (*questionTable, error) {
	if len(services) == 0 {
		return nil, errors.New("no anycast service to ask about")
	}
	if maxServices > 0 && maxServices < len(services) {
		services = services[:maxServices]
	}
	zone, err := route.EncodeName(nil, route.DefaultZone)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(int64(seed)))
	qt := &questionTable{
		arena:   make([]byte, 0, n*64),
		off:     make([]uint32, 0, n+1),
		client:  make([]netsim.Prefix24, n),
		service: make([]netsim.Prefix24, n),
	}
	for i := 0; i < n; i++ {
		qt.client[i] = netsim.Prefix24(clientBase + i%clients)
		qt.service[i] = services[r.Intn(len(services))]
		qt.off = append(qt.off, uint32(len(qt.arena)))
		qt.arena = route.AppendQuery(qt.arena, 0, qt.service[i], route.PolicyNone, zone, qtypeA, qt.client[i])
	}
	qt.off = append(qt.off, uint32(len(qt.arena)))
	return qt, nil
}

func (q *questionTable) len() int { return len(q.client) }

func (q *questionTable) packet(i int) []byte { return q.arena[q.off[i]:q.off[i+1]] }

// publishLog is what the generators know about published snapshot
// versions: the newest one, and when each was handed to Store.Publish,
// so the first TXT answer carrying a version dates publish-to-answer.
type publishLog struct {
	origin time.Time
	latest atomic.Uint64
	// Indexed by version modulo the ring: only the newest 1,024 versions
	// are remembered.
	calledAt [1024]atomic.Int64 // ns since origin; 0 = not announced
	firstAns [1024]atomic.Int64 // ns from call to first answer; 0 = none yet
}

func newPublishLog() *publishLog { return &publishLog{origin: time.Now()} }

// announce records that version v is about to be published.
func (p *publishLog) announce(v uint64) {
	p.firstAns[v%1024].Store(0)
	p.calledAt[v%1024].Store(int64(time.Since(p.origin)) | 1)
}

// sighted records an answer carrying version v; the first one per
// version sets its publish-to-answer time.
func (p *publishLog) sighted(v uint64, now time.Time) {
	if p.firstAns[v%1024].Load() != 0 {
		return
	}
	if at := p.calledAt[v%1024].Load(); at != 0 {
		p.firstAns[v%1024].CompareAndSwap(0, max(int64(now.Sub(p.origin))-at, 1))
	}
}

// answerTimes returns the publish-to-answer times of versions lo..hi.
func (p *publishLog) answerTimes(lo, hi uint64) []time.Duration {
	var out []time.Duration
	for v := max(lo, hi-min(hi, 1023)); v <= hi; v++ {
		if d := p.firstAns[v%1024].Load(); d != 0 {
			out = append(out, time.Duration(d))
		}
	}
	return out
}

// answerCheck is one sampled A answer, replayed through the engine after
// the phase.
type answerCheck struct {
	question int
	addr     netsim.IP
}

// loadShape is how one closed-loop phase runs and what it keeps: dur
// long, completions counted per window; keepLatencies also keeps every
// round trip (the saturation phases only need the counts, and a record
// per query would be tens of megabytes of generator heap for the
// server's collector to walk).
type loadShape struct {
	dur           time.Duration
	window        time.Duration
	keepLatencies bool
}

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	done       windows         // completions per window
	latencies  []time.Duration // with keepLatencies
	sent       int
	answered   int
	failed     int // timeouts, errors, malformed or inconsistent answers
	checks     []answerCheck
	maxVersion uint64 // the newest snapshot version a TXT answer carried
	firstErr   string
}

func (r *loadResult) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// completed records one answered operation.
func (r *loadResult) completed(at, lat time.Duration, keep bool) {
	r.answered++
	r.done.add(at)
	if keep {
		r.latencies = append(r.latencies, lat)
	}
}

func (r *loadResult) merge(o loadResult) {
	r.done.merge(o.done)
	r.latencies = append(r.latencies, o.latencies...)
	r.sent += o.sent
	r.answered += o.answered
	r.failed += o.failed
	r.checks = append(r.checks, o.checks...)
	r.maxVersion = max(r.maxVersion, o.maxVersion)
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// dnsClosedLoop drives conns connections, each keeping window queries
// outstanding, for shape.dur. With pubs set every answer is validated: NOERROR
// with one record, TXT versions published and non-decreasing on their
// connection, and one A answer in answerCheckEvery kept for replay. With
// pubs nil (the echo calibration) answers are only counted.
func dnsClosedLoop(addr string, qt *questionTable, conns, window int, zipf bool, seed uint64, shape loadShape, pubs *publishLog) loadResult {
	results := make([]loadResult, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = dnsClosedConn(addr, qt, window, newPicker(seed+uint64(c)*7919, qt.len(), zipf), start, shape, pubs)
		}(c)
	}
	wg.Wait()
	var total loadResult
	for _, r := range results {
		total.merge(r)
	}
	return total
}

func dnsClosedConn(addr string, qt *questionTable, window int, pick *picker, start time.Time, shape loadShape, pubs *publishLog) (res loadResult) {
	res.done = newWindows(shape.window, shape.dur)
	nc, err := net.Dial("udp", addr)
	if err != nil {
		res.fail("dial %s: %v", addr, err)
		return res
	}
	defer nc.Close()
	conn := nc.(*net.UDPConn)

	type slot struct {
		sent     time.Time
		question int
		id       uint16
		txt      bool
		live     bool
	}
	const ringSize = 64 // a power of two above any window in use
	var ring [ringSize]slot
	var out [maxQueryBytes]byte
	var in [2048]byte
	seq := 0
	outstanding := 0
	lastVersion := uint64(0)
	defer func() { res.maxVersion = lastVersion }()
	stopAt := start.Add(shape.dur)

	send := func(now time.Time) {
		q := pick.next()
		pkt := out[:copy(out[:], qt.packet(q))]
		id := uint16(seq)
		pkt[0], pkt[1] = byte(id>>8), byte(id)
		txt := seq%txtEvery == txtEvery-1
		if txt {
			pkt[len(pkt)-optTail-3] = qtypeTXT
		}
		if s := &ring[seq%ringSize]; s.live {
			// Still unanswered a whole ring later: lost.
			outstanding--
			res.fail("query %d lost", s.id)
		}
		ring[seq%ringSize] = slot{sent: now, question: q, id: id, txt: txt, live: true}
		seq++
		res.sent++
		outstanding++
		if _, err := conn.Write(pkt); err != nil {
			ring[(seq-1)%ringSize].live = false
			outstanding--
			res.fail("udp write: %v", err)
		}
	}

	now := time.Now()
	for i := 0; i < window; i++ {
		send(now)
	}
	for reads := 0; outstanding > 0; reads++ {
		if reads%128 == 0 {
			conn.SetReadDeadline(time.Now().Add(udpTimeout))
		}
		n, err := conn.Read(in[:])
		now = time.Now()
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				res.fail("udp read: %v", err)
				return res
			}
			// Everything still outstanding is lost; start the window over.
			for i := range ring {
				if ring[i].live {
					ring[i].live = false
					res.fail("query timed out after %v", udpTimeout)
				}
			}
			outstanding = 0
			conn.SetReadDeadline(now.Add(udpTimeout))
			for i := 0; i < window && now.Before(stopAt); i++ {
				send(now)
			}
			continue
		}
		if n < 12 {
			continue
		}
		id := uint16(in[0])<<8 | uint16(in[1])
		s := &ring[int(id)%ringSize]
		if !s.live || s.id != id {
			continue // an answer to a query already written off
		}
		s.live = false
		outstanding--
		res.completed(now.Sub(start), now.Sub(s.sent), shape.keepLatencies)
		if pubs != nil {
			checkAnswer(&res, in[:n], len(qt.packet(s.question))-optTail, s.question, s.txt, &lastVersion, pubs, now)
		}
		if now.Before(stopAt) {
			send(now)
		}
	}
	return res
}

// checkAnswer validates one DNS answer. qend is where the question
// section ends, which is the same offset in the query and its answer.
func checkAnswer(res *loadResult, pkt []byte, qend, question int, txt bool, lastVersion *uint64, pubs *publishLog, now time.Time) {
	rcode := int(pkt[3] & 0x0f)
	ancount := int(pkt[6])<<8 | int(pkt[7])
	if rcode != route.RcodeNoError || ancount != 1 || len(pkt) < qend+answerRR {
		res.fail("question %d: rcode %d, %d answers, %d bytes", question, rcode, ancount, len(pkt))
		return
	}
	rdata := pkt[qend+answerRR:]
	if !txt {
		if len(rdata) < 4 {
			res.fail("question %d: short A record", question)
			return
		}
		if res.answered%answerCheckEvery == 0 {
			addr := netsim.IP(uint32(rdata[0])<<24 | uint32(rdata[1])<<16 | uint32(rdata[2])<<8 | uint32(rdata[3]))
			res.checks = append(res.checks, answerCheck{question: question, addr: addr})
		}
		return
	}
	v, ok := txtVersion(rdata)
	if !ok {
		res.fail("question %d: TXT answer without v=", question)
		return
	}
	if v < *lastVersion {
		res.fail("question %d: version went back from %d to %d", question, *lastVersion, v)
		return
	}
	if v > *lastVersion {
		pubs.sighted(v, now)
	}
	*lastVersion = v
}

// txtVersion extracts the snapshot version from a TXT RDATA
// (length-prefixed string ending in " v=<n>").
func txtVersion(rdata []byte) (uint64, bool) {
	if len(rdata) < 1 || int(rdata[0]) > len(rdata)-1 {
		return 0, false
	}
	txt := rdata[1 : 1+int(rdata[0])]
	i := bytes.LastIndex(txt, []byte(" v="))
	if i < 0 {
		return 0, false
	}
	v, err := strconv.ParseUint(string(txt[i+3:]), 10, 64)
	return v, err == nil
}

// openResult is what the open loop observed.
type openResult struct {
	latUs    []float64 // answer latency from the due time
	lateUs   []float64 // how far behind schedule each query was sent
	sent     int
	received int
}

// dnsOpenLoop sends rate queries per second on a fixed schedule for dur,
// whatever the answers do. A query's latency runs from when it was due,
// not from when it was sent, so a stalled sender charges its stall to the
// queries it delayed; how late each send ran is reported beside it.
//
// Pacing: at 20k queries per second the gaps are 50 us, far below what
// the runtime's timers and netpoller resolve, so one goroutine busy-polls:
// it drains whatever answers have arrived with non-blocking reads, then
// sends every query that has come due. It parks on nothing — no timer, no
// netpoller wait, no hand-off to a receiver goroutine — so the only
// scheduler wake-ups inside a measured latency are the server's own. The
// price is one core held for the phase, which on a two-core box leaves
// the server the other.
func dnsOpenLoop(addr string, qt *questionTable, rate float64, zipf bool, seed uint64, dur time.Duration) (openResult, error) {
	nc, err := net.Dial("udp", addr)
	if err != nil {
		return openResult{}, err
	}
	defer nc.Close()
	conn := nc.(*net.UDPConn)
	raw, err := conn.SyscallConn()
	if err != nil {
		return openResult{}, err
	}

	var dueAt [1 << 16]int64 // due time of the query with this DNS ID, ns since start, +1; 0 = empty
	interval := time.Duration(float64(time.Second) / rate)
	total := int(dur / interval)
	res := openResult{
		latUs:  make([]float64, 0, total),
		lateUs: make([]float64, 0, total),
	}
	pick := newPicker(seed, qt.len(), zipf)
	var out [maxQueryBytes]byte
	var in [2048]byte
	// tryRead makes one non-blocking read attempt: returning true from
	// the callback tells RawConn not to wait for readiness.
	got := 0
	tryRead := func(fd uintptr) bool {
		got, _ = syscall.Read(int(fd), in[:])
		return true
	}
	start := time.Now()
	grace := dur + 20*time.Millisecond // the last answers get a moment
	for i := 0; ; {
		now := time.Since(start)
		if now >= grace {
			break
		}
		if err := raw.Read(tryRead); err != nil {
			return res, err
		}
		if got >= 12 {
			id := uint16(in[0])<<8 | uint16(in[1])
			if due := dueAt[id]; due != 0 {
				dueAt[id] = 0
				res.latUs = append(res.latUs, float64(int64(time.Since(start))-(due-1))/1e3)
			}
			continue // drain before sending
		}
		if due := time.Duration(i) * interval; i < total && now >= due {
			pkt := out[:copy(out[:], qt.packet(pick.next()))]
			id := uint16(i)
			pkt[0], pkt[1] = byte(id>>8), byte(id)
			dueAt[id] = int64(due) + 1
			i++
			if _, err := conn.Write(pkt); err != nil {
				dueAt[id] = 0
				continue
			}
			res.sent++
			res.lateUs = append(res.lateUs, float64(now-due)/1e3)
		}
	}
	res.received = len(res.latUs)
	return res, nil
}

// echoCeiling measures what the closed-loop generator achieves against a
// server that does nothing: an in-process UDP echo. A dns_qps near this
// figure says the generator, not the server, is the limit.
func echoCeiling(qt *questionTable, conns, window int, seed uint64, dur time.Duration) (float64, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	echo := pc.(*net.UDPConn)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [2048]byte
		for {
			n, src, err := echo.ReadFromUDPAddrPort(buf[:])
			if err != nil {
				return
			}
			echo.WriteToUDPAddrPort(buf[:n], src)
		}
	}()
	res := dnsClosedLoop(echo.LocalAddr().String(), qt, conns, window, false, seed, loadShape{dur: dur, window: dur}, nil)
	echo.Close()
	<-done
	if res.failed > 0 {
		return 0, fmt.Errorf("echo calibration: %d of %d failed: %s", res.failed, res.sent, res.firstErr)
	}
	return float64(res.answered) / dur.Seconds(), nil
}

// lookupTable is the workload's distinct HTTP lookup addresses and
// whether the published map lists each one's /24 as anycast.
type lookupTable struct {
	ips     []netsim.IP
	anycast []bool
}

// buildLookups draws n addresses over the detected anycast /24s and the
// census's unicast target /24s, shuffled together so a skewed draw's head
// holds both kinds.
func buildLookups(n int, anycast []netsim.Prefix24, targets []netsim.IP, seed uint64) *lookupTable {
	isAnycast := make(map[netsim.Prefix24]bool, len(anycast))
	pool := append([]netsim.Prefix24(nil), anycast...)
	for _, p := range anycast {
		isAnycast[p] = true
	}
	for _, ip := range targets {
		if p := ip.Prefix(); !isAnycast[p] {
			pool = append(pool, p)
		}
	}
	r := rand.New(rand.NewSource(int64(seed)))
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	lt := &lookupTable{ips: make([]netsim.IP, n), anycast: make([]bool, n)}
	for j := 0; j < n; j++ {
		p := pool[j%len(pool)]
		lt.ips[j] = p.Host(byte(1 + (j/len(pool))%254))
		lt.anycast[j] = isAnycast[p]
	}
	return lt
}

// httpClosedLoop drives conns keep-alive connections against
// GET /v1/lookup for shape.dur, each keeping window requests outstanding:
// window 1 measures round trips, a wider one pipelines requests so that
// neither side ever waits for the other to wake. Every answer must be a
// 200 whose "anycast" field agrees with the published map.
func httpClosedLoop(addr string, lt *lookupTable, conns, window int, zipf bool, seed uint64, shape loadShape) loadResult {
	results := make([]loadResult, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = httpClosedConn(addr, lt, window, newPicker(seed+uint64(c)*104729, len(lt.ips), zipf), start, shape)
		}(c)
	}
	wg.Wait()
	var total loadResult
	for _, r := range results {
		total.merge(r)
	}
	return total
}

func httpClosedConn(addr string, lt *lookupTable, window int, pick *picker, start time.Time, shape loadShape) (res loadResult) {
	res.done = newWindows(shape.window, shape.dur)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		res.fail("dial %s: %v", addr, err)
		return res
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 16<<10)
	req := make([]byte, 0, 128)
	var body []byte
	stopAt := start.Add(shape.dur)

	// HTTP/1.1 answers in request order, so the outstanding requests are
	// a queue: head is the next one to be answered.
	type pending struct {
		sent time.Time
		ip   int
	}
	queue := make([]pending, window)
	head, outstanding := 0, 0
	send := func(now time.Time) bool {
		j := pick.next()
		req = append(req[:0], "GET /v1/lookup?ip="...)
		req = netsim.AppendIP(req, lt.ips[j])
		req = append(req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
		queue[(head+outstanding)%window] = pending{sent: now, ip: j}
		outstanding++
		res.sent++
		if _, err := conn.Write(req); err != nil {
			res.fail("http write: %v", err)
			return false
		}
		return true
	}

	now := time.Now()
	for i := 0; i < window; i++ {
		if !send(now) {
			return res
		}
	}
	for n := 0; outstanding > 0; n++ {
		if n%64 == 0 {
			conn.SetDeadline(time.Now().Add(httpTimeout))
		}
		var status int
		status, body, err = readHTTPResponse(br, body[:0])
		if err != nil {
			res.failed += outstanding - 1
			res.fail("http read: %v", err)
			return res
		}
		now = time.Now()
		p := queue[head]
		head = (head + 1) % window
		outstanding--
		res.completed(now.Sub(start), now.Sub(p.sent), shape.keepLatencies)
		if status != 200 {
			res.fail("lookup %v: status %d", lt.ips[p.ip], status)
		} else if got := bytes.Contains(body, []byte(`"anycast":true`)); got != lt.anycast[p.ip] {
			res.fail("lookup %v: anycast=%v, the published map says %v", lt.ips[p.ip], got, lt.anycast[p.ip])
		}
		if now.Before(stopAt) && !send(now) {
			return res
		}
	}
	return res
}

// readHTTPResponse reads one HTTP/1.1 response — status line, headers,
// and a body delimited by Content-Length or chunked encoding — appending
// the body to buf.
func readHTTPResponse(br *bufio.Reader, buf []byte) (status int, body []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, buf, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, buf, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, buf, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, buf, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, buf, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	readN := func(n int) error {
		at := len(buf)
		buf = slices.Grow(buf, n)[:at+n]
		_, err := io.ReadFull(br, buf[at:])
		return err
	}
	switch {
	case chunked:
		for {
			line, err = br.ReadSlice('\n')
			if err != nil {
				return 0, buf, err
			}
			size, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
			if err != nil {
				return 0, buf, fmt.Errorf("malformed chunk size %q", line)
			}
			if size > 0 {
				if err := readN(int(size)); err != nil {
					return 0, buf, err
				}
			}
			if _, err := br.Discard(2); err != nil { // the CRLF after every chunk, the last included
				return 0, buf, err
			}
			if size == 0 {
				return status, buf, nil
			}
		}
	case length >= 0:
		err = readN(length)
		return status, buf, err
	default:
		return 0, buf, errors.New("response has neither Content-Length nor chunked encoding")
	}
}
