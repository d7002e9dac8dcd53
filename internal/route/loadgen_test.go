package route

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestLoadClosedLoop runs the closed loop against a real front-end on
// loopback with a worker count that does not divide the query count: every
// query must go out (the remainder used to be dropped silently), every one
// must be answered, and the front-end must have seen exactly that many.
func TestLoadClosedLoop(t *testing.T) {
	m := NewMetrics(nil)
	s := testServer(t, testStore(t), m)
	const queries = 1000 // 3 workers: 334 + 333 + 333
	res, err := Run(LoadConfig{Addr: s.Addr().String(), Workers: 3, Queries: queries, Service: svcPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != queries || res.Received != queries || res.Timeouts != 0 || res.Errors != 0 {
		t.Fatalf("load: %v, want %d sent and received", res, queries)
	}
	if got := m.Queries.Value(); got != queries {
		t.Errorf("front-end saw %d queries, want %d", got, queries)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 || res.QPS <= 0 {
		t.Errorf("percentiles p50 %v p99 %v p999 %v at %.0f qps", res.P50, res.P99, res.P999, res.QPS)
	}

	// More workers than queries: one query each, none invented.
	res, err = Run(LoadConfig{Addr: s.Addr().String(), Workers: 8, Queries: 5, Service: svcPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 5 || res.Received != 5 {
		t.Fatalf("5 queries over 8 workers: %v", res)
	}
}

// TestLoadOpenLoop paces a modest rate at the same front-end: the sender
// and its reader share the send-time ring, which is what -race watches
// here, and at a rate loopback keeps up with nothing may go missing.
func TestLoadOpenLoop(t *testing.T) {
	m := NewMetrics(nil)
	s := testServer(t, testStore(t), m)
	res, err := Run(LoadConfig{
		Addr: s.Addr().String(), Workers: 2, Service: svcPrefix,
		RatePerS: 1000, Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Received != res.Sent || res.Timeouts != 0 || res.Errors != 0 {
		t.Fatalf("load: %v, want every query answered", res)
	}
	if got := m.Queries.Value(); got != uint64(res.Sent) {
		t.Errorf("front-end saw %d queries, want %d", got, res.Sent)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Errorf("percentiles p50 %v p99 %v p999 %v", res.P50, res.P99, res.P999)
	}
}

// lateResponder is a UDP echo that answers every datagram after delay,
// each on its own timer, except the late-th one (0-based), which it holds
// back for lateDelay.
func lateResponder(t *testing.T, delay time.Duration, late int, lateDelay time.Duration) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for k := 0; ; k++ {
			n, src, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			pkt := append([]byte(nil), buf[:n]...)
			d := delay
			if k == late {
				d = lateDelay
			}
			// A write after Close fails; nobody is listening by then.
			time.AfterFunc(d, func() { conn.WriteToUDP(pkt, src) })
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		wg.Wait()
	})
	return conn.LocalAddr().String()
}

// TestLoadClosedLoopLateAnswer holds one answer back until after the
// generator gave up on it, so it lands in the middle of the next exchange.
// The generator must drop it by its DNS ID: one timeout, and every other
// query timed against its own answer — never sooner than the responder's
// delay, never as long as the timeout. Taking the stale datagram for the
// next answer shifts every later exchange of the worker by one, and the
// latencies it reports are then the stale answer's offset, not the
// responder's delay.
func TestLoadClosedLoopLateAnswer(t *testing.T) {
	const (
		queries = 12
		delay   = 50 * time.Millisecond
		timeout = 200 * time.Millisecond
	)
	addr := lateResponder(t, delay, 1, timeout+delay/2)
	res, err := Run(LoadConfig{Addr: addr, Workers: 1, Queries: queries, Service: svcPrefix, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != queries || res.Timeouts != 1 || res.Received != queries-1 || res.Errors != 0 {
		t.Fatalf("load: %v, want %d sent and exactly one timeout", res, queries)
	}
	if res.P50 < delay {
		t.Errorf("p50 %v is below the responder's %v delay: latencies are measured against the wrong answers", res.P50, delay)
	}
	if res.P999 >= timeout {
		t.Errorf("slowest answer took %v, the timeout is %v: a latency absorbed the timed-out exchange", res.P999, timeout)
	}
}
