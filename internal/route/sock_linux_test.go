//go:build linux && (amd64 || arm64)

package route

import (
	"bytes"
	"net/netip"
	"syscall"
	"testing"
	"unsafe"

	"anycastmap/internal/netsim"
	"anycastmap/internal/obs"
	"anycastmap/internal/store"
)

// fillBatch stands in for recvmmsg: request i lands in slot i, sent from
// srcs[i].
func fillBatch(b *batch, reqs [][]byte, srcs []netip.AddrPort) {
	for i, req := range reqs {
		b.in[i].n = uint32(copy(b.bufs[i][:], req))
		putSockaddr(&b.names[i], &b.in[i].hdr, srcs[i])
	}
}

// putSockaddr writes src as the kernel would: an AF_INET sockaddr for a
// v4 address, AF_INET6 otherwise, port in network byte order.
func putSockaddr(sa *syscall.RawSockaddrInet6, h *syscall.Msghdr, src netip.AddrPort) {
	port := [2]byte{byte(src.Port() >> 8), byte(src.Port())}
	if a := src.Addr(); a.Is4() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		*(*[2]byte)(unsafe.Pointer(&sa4.Port)) = port
		h.Namelen = syscall.SizeofSockaddrInet4
		return
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: src.Addr().As16()}
	*(*[2]byte)(unsafe.Pointer(&sa.Port)) = port
	h.Namelen = syscall.SizeofSockaddrInet6
}

// TestBatchAnswerLayout drives one batch by hand: a truncated datagram
// and a runt are counted and dropped, each answer overwrites its own
// request and goes back to its own source, and the source addresses
// convert to the AddrPort Respond routes by.
func TestBatchAnswerLayout(t *testing.T) {
	if size := unsafe.Sizeof(mmsghdr{}); size != 64 {
		t.Fatalf("mmsghdr is %d bytes, struct mmsghdr is 64", size)
	}
	m := NewMetrics(nil)
	r, err := NewResponder(testEngine(t, testStore(t)), "", 30, m)
	if err != nil {
		t.Fatal(err)
	}
	reqs := [][]byte{
		AppendQuery(nil, 0x0a, svcPrefix, PolicyNone, testZone, qtypeA, netsim.Prefix24(0x0b0001)),
		AppendQuery(nil, 0x0b, svcPrefix, PolicyNone, testZone, qtypeA, netsim.Prefix24(0x0b0001)), // truncated
		{0x0c, 0x0c, 0},
		bareQuery(t, 0x0d, qtypeTXT),
		bareQuery(t, 0x0e, qtypeTXT),
	}
	srcs := []netip.AddrPort{
		netip.MustParseAddrPort("192.0.2.1:5353"),
		netip.MustParseAddrPort("192.0.2.2:53"),
		netip.MustParseAddrPort("[2001:db8::1]:4000"),
		netip.MustParseAddrPort("[::ffff:198.51.100.7]:65535"),
		netip.MustParseAddrPort("203.0.113.9:1"),
	}
	b := newBatch()
	fillBatch(b, reqs, srcs)
	b.in[1].hdr.Flags = msgTrunc
	for i, src := range srcs {
		if got := sockaddrAddrPort(&b.names[i]); got != src {
			t.Errorf("sockaddr %d converts to %v, want %v", i, got, src)
		}
	}

	k := b.answer(r, &Scratch{}, len(reqs))
	answered := []struct {
		slot   int
		id     uint16
		client string
	}{{0, 0x0a, ""}, {3, 0x0d, "client=198.51.100.0/24"}, {4, 0x0e, "client=203.0.113.0/24"}}
	if k != len(answered) {
		t.Fatalf("%d answers, want %d", k, len(answered))
	}
	for j, a := range answered {
		o := &b.out[j]
		if o.hdr.Name != b.in[a.slot].hdr.Name || o.hdr.Namelen != b.in[a.slot].hdr.Namelen {
			t.Errorf("answer %d is not addressed to request %d's source", j, a.slot)
		}
		if o.hdr.Iov != &b.outIov[j] || b.outIov[j].Base != &b.bufs[a.slot][0] {
			t.Errorf("answer %d does not send slot %d", j, a.slot)
		}
		resp := b.bufs[a.slot][:b.outIov[j].Len]
		if respID(resp) != a.id || respRcode(resp) != RcodeNoError {
			t.Errorf("answer %d: ID %#x rcode %d, want %#x NOERROR", j, respID(resp), respRcode(resp), a.id)
		}
		if !bytes.Contains(resp, []byte(a.client)) {
			t.Errorf("answer %d: %q lacks %q", j, resp, a.client)
		}
	}
	if q, d := m.Queries.Value(), m.Dropped.Value(); q != 5 || d != 2 {
		t.Errorf("queries %d dropped %d, want 5 and 2", q, d)
	}

	b.rearm(len(reqs))
	for i := range reqs {
		if h := &b.in[i].hdr; h.Namelen != uint32(unsafe.Sizeof(b.names[i])) || h.Flags != 0 {
			t.Errorf("header %d not rearmed: namelen %d flags %#x", i, h.Namelen, h.Flags)
		}
	}
}

// TestBatchAnswerZeroAllocs extends TestRespondZeroAllocsPerQuery past
// Respond: answering a full batch — sockaddr conversion, 32 answers, the
// copies into the ring and the sendmmsg layout — allocates nothing.
func TestBatchAnswerZeroAllocs(t *testing.T) {
	reqs := make([][]byte, batchSize)
	srcs := make([]netip.AddrPort, batchSize)
	for i := range reqs {
		qtype := uint16(qtypeA)
		if i%2 == 1 {
			qtype = qtypeTXT
		}
		reqs[i] = AppendQuery(nil, uint16(i), svcPrefix, PolicyNone, testZone, qtype, netsim.Prefix24(0x0b0000+uint32(i)))
		srcs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), uint16(1024+i))
	}
	for _, st := range []struct {
		name string
		st   *store.Store
	}{{"heap", testStore(t)}, {"mapped", mappedStore(t)}} {
		r, err := NewResponder(testEngine(t, st.st), "", 30, NewMetrics(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		b, sc := newBatch(), &Scratch{}
		run := func() int {
			fillBatch(b, reqs, srcs)
			k := b.answer(r, sc, batchSize)
			b.rearm(batchSize)
			return k
		}
		if k := run(); k != batchSize {
			t.Fatalf("%s: %d answers to a full batch, want %d", st.name, k, batchSize)
		}
		if got := testing.AllocsPerRun(100, func() { run() }); got != 0 {
			t.Errorf("%s: a %d-message batch = %.1f allocs, want 0", st.name, batchSize, got)
		}
	}
}
