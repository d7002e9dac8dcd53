package route

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anycastmap/internal/netsim"
)

// loadgen.go — the front-end's traffic source, in both shapes the
// serving literature distinguishes:
//
//   - closed loop: each worker sends, waits for the answer, repeats.
//     Measures latency under a concurrency bound; throughput is gated
//     by round-trip time.
//   - open loop: senders pace queries at a fixed rate regardless of
//     responses, the way real query arrivals behave; a reader matches
//     answers by DNS ID. Measures whether the server keeps up and what
//     the tail looks like when it must.

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Addr is the front-end's UDP address.
	Addr string
	// Workers is the number of concurrent connections (closed loop) or
	// sender/reader pairs (open loop). 0 means 4.
	Workers int
	// Queries is the closed-loop total; Duration and RatePerS select
	// the open loop instead when RatePerS > 0.
	Queries  int
	Duration time.Duration
	RatePerS float64
	// Service is the deployment prefix to query for.
	Service netsim.Prefix24
	// Clients is how many distinct synthetic client /24s rotate through
	// the ECS option. 0 means 1024.
	Clients int
	// QType is the query type (0 = A). Policy optionally prefixes the
	// qname with a policy label; Zone defaults to DefaultZone.
	QType  uint16
	Policy Policy
	Zone   string
	// Timeout bounds one closed-loop round trip (0 = 1s).
	Timeout time.Duration
}

// LoadResult summarizes one run.
type LoadResult struct {
	Sent     int           `json:"sent"`
	Received int           `json:"received"`
	Timeouts int           `json:"timeouts"`
	Errors   int           `json:"errors"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// QPS counts received answers per second of elapsed time.
	QPS  float64       `json:"qps"`
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
}

func (c LoadConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

func (c LoadConfig) clients() int {
	if c.Clients > 0 {
		return c.Clients
	}
	return 1024
}

func (c LoadConfig) qtype() uint16 {
	if c.QType != 0 {
		return c.QType
	}
	return qtypeA
}

func (c LoadConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return time.Second
}

// AppendQuery builds one request packet: an RD query for the service
// under the zone, carrying client as a /24 EDNS Client Subnet option.
func AppendQuery(dst []byte, id uint16, service netsim.Prefix24, policy Policy, zone []byte, qtype uint16, client netsim.Prefix24) []byte {
	var h [headerLen]byte
	put16(h[0:], id)
	put16(h[2:], flagRD)
	put16(h[4:], 1) // QDCOUNT
	put16(h[10:], 1)
	dst = append(dst, h[:]...)
	if policy != PolicyNone {
		name := policy.String()
		dst = append(dst, byte(len(name)))
		dst = append(dst, name...)
	}
	svc := uint32(service)
	for shift := 16; shift >= 0; shift -= 8 {
		var lbl [4]byte
		oct := appendOctet(lbl[:0], byte(svc>>shift))
		dst = append(dst, byte(len(oct)))
		dst = append(dst, oct...)
	}
	dst = append(dst, zone...)
	var qt [4]byte
	put16(qt[0:], qtype)
	put16(qt[2:], classIN)
	dst = append(dst, qt[:]...)
	// OPT with a /24 ECS option.
	dst = append(dst, 0)
	var opt [21]byte
	put16(opt[0:], qtypeOPT)
	put16(opt[2:], ednsUDPSize)
	put16(opt[8:], 11) // RDLEN: option header 4 + ECS 7
	put16(opt[10:], optCodeECS)
	put16(opt[12:], 7)
	put16(opt[14:], 1) // family v4
	opt[16] = 24       // source /24
	opt[17] = 0        // scope
	ip := uint32(client) << 8
	opt[18], opt[19], opt[20] = byte(ip>>24), byte(ip>>16), byte(ip>>8)
	return append(dst, opt[:]...)
}

// appendOctet mirrors netsim's digit rendering for qname labels.
func appendOctet(dst []byte, v byte) []byte {
	if v >= 100 {
		dst = append(dst, '0'+v/100)
	}
	if v >= 10 {
		dst = append(dst, '0'+(v/10)%10)
	}
	return append(dst, '0'+v%10)
}

// Run fires load at the front-end and reports. RatePerS > 0 selects the
// open loop, otherwise the closed loop runs cfg.Queries queries.
func Run(cfg LoadConfig) (LoadResult, error) {
	zone := cfg.Zone
	if zone == "" {
		zone = DefaultZone
	}
	wireZone, err := EncodeName(nil, zone)
	if err != nil {
		return LoadResult{}, err
	}
	if cfg.RatePerS > 0 {
		return runOpenLoop(cfg, wireZone)
	}
	return runClosedLoop(cfg, wireZone)
}

func runClosedLoop(cfg LoadConfig, zone []byte) (LoadResult, error) {
	workers := cfg.workers()
	total := cfg.Queries
	if total <= 0 {
		total = 10000
	}
	if workers > total {
		workers = total
	}
	// The first total%workers workers send one query more, so exactly
	// total queries go out whatever the worker count.
	per, rem := total/workers, total%workers

	type wres struct {
		sent, recv, timeouts, errs int
		lat                        []time.Duration
	}
	results := make([]wres, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			first, n := w*per+min(w, rem), per
			if w < rem {
				n++
			}
			conn, err := net.Dial("udp", cfg.Addr)
			if err != nil {
				r.errs = n
				return
			}
			defer conn.Close()
			r.lat = make([]time.Duration, 0, n)
			req := make([]byte, 0, 128)
			resp := make([]byte, 2048)
			clients := cfg.clients()
			for i := 0; i < n; i++ {
				id := uint16(i)
				client := netsim.Prefix24(uint32(0x0b0000) + uint32((first+i)%clients))
				req = AppendQuery(req[:0], id, cfg.Service, cfg.Policy, zone, cfg.qtype(), client)
				t0 := time.Now()
				if _, err := conn.Write(req); err != nil {
					r.errs++
					continue
				}
				r.sent++
				// Read until this query's answer or the deadline: the
				// late answer to a query that already timed out must not
				// pass for this one's, or every later latency of the
				// worker is measured one exchange off.
				conn.SetReadDeadline(t0.Add(cfg.timeout()))
				answered := false
				for !answered {
					m, err := conn.Read(resp)
					if err != nil {
						break
					}
					answered = m >= 2 && uint16(resp[0])<<8|uint16(resp[1]) == id
				}
				if !answered {
					r.timeouts++
					continue
				}
				r.recv++
				r.lat = append(r.lat, time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var res LoadResult
	var all []time.Duration
	for _, r := range results {
		res.Sent += r.sent
		res.Received += r.recv
		res.Timeouts += r.timeouts
		res.Errors += r.errs
		all = append(all, r.lat...)
	}
	res.Elapsed = elapsed
	finishLoad(&res, all)
	return res, nil
}

// runOpenLoop paces cfg.RatePerS queries/s across the workers for
// cfg.Duration. Each worker's reader matches responses to send times by
// DNS ID through a 64Ki ring, so latency is measured without a lockstep
// round trip.
func runOpenLoop(cfg LoadConfig, zone []byte) (LoadResult, error) {
	workers := cfg.workers()
	dur := cfg.Duration
	if dur <= 0 {
		dur = 2 * time.Second
	}
	perRate := cfg.RatePerS / float64(workers)
	interval := time.Duration(float64(time.Second) / perRate)
	if interval <= 0 {
		interval = time.Nanosecond
	}

	type wres struct {
		sent, recv, errs int
		lat              []time.Duration
	}
	results := make([]wres, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			conn, err := net.Dial("udp", cfg.Addr)
			if err != nil {
				r.errs++
				return
			}
			defer conn.Close()

			sendNs := make([]atomic.Int64, 1<<16) // written by the sender, swapped by the reader
			done := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				resp := make([]byte, 2048)
				for {
					conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					n, err := conn.Read(resp)
					if err != nil {
						select {
						case <-done:
							return
						default:
							continue
						}
					}
					if n < 2 {
						continue
					}
					id := uint16(resp[0])<<8 | uint16(resp[1])
					if t0 := sendNs[id].Swap(0); t0 != 0 {
						r.recv++
						r.lat = append(r.lat, time.Duration(time.Now().UnixNano()-t0))
					}
				}
			}()

			req := make([]byte, 0, 128)
			clients := cfg.clients()
			deadline := start.Add(dur)
			i := 0
			for {
				now := time.Now()
				if now.After(deadline) {
					break
				}
				// Pace: query i is due at start + i*interval.
				due := start.Add(time.Duration(i) * interval)
				if d := due.Sub(now); d > 0 {
					time.Sleep(d)
				}
				id := uint16(i)
				client := netsim.Prefix24(uint32(0x0b0000) + uint32(i%clients))
				req = AppendQuery(req[:0], id, cfg.Service, cfg.Policy, zone, cfg.qtype(), client)
				sendNs[id].Store(time.Now().UnixNano())
				if _, err := conn.Write(req); err != nil {
					r.errs++
				} else {
					r.sent++
				}
				i++
			}
			// Drain stragglers briefly, then stop the reader.
			time.Sleep(50 * time.Millisecond)
			close(done)
			conn.SetReadDeadline(time.Now())
			reader.Wait()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var res LoadResult
	var all []time.Duration
	for _, r := range results {
		res.Sent += r.sent
		res.Received += r.recv
		res.Errors += r.errs
		all = append(all, r.lat...)
	}
	res.Timeouts = res.Sent - res.Received
	if res.Timeouts < 0 {
		res.Timeouts = 0
	}
	res.Elapsed = elapsed
	finishLoad(&res, all)
	return res, nil
}

func finishLoad(res *LoadResult, lat []time.Duration) {
	if res.Elapsed > 0 {
		res.QPS = float64(res.Received) / res.Elapsed.Seconds()
	}
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50 = lat[len(lat)/2]
	res.P99 = lat[len(lat)*99/100]
	res.P999 = lat[len(lat)*999/1000]
}

// String renders the result for log lines.
func (r LoadResult) String() string {
	return fmt.Sprintf("sent %d, received %d (%.0f qps), timeouts %d, errors %d, p50 %v, p99 %v",
		r.Sent, r.Received, r.QPS, r.Timeouts, r.Errors,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
}
