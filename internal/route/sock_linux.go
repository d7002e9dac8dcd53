//go:build linux && (amd64 || arm64)

package route

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// batchSize is how many datagrams one recvmmsg takes and one sendmmsg
// answers. Both calls pass MSG_DONTWAIT, so a batch is whatever has
// queued, never a wait for more.
const batchSize = 32

// mmsghdr is struct mmsghdr: a message header and the byte count the
// kernel fills in for it. Go's alignment pads it to the C layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// batch is one listener's ring. Request i is read into bufs[i] from the
// address recvmmsg writes to names[i]; its answer overwrites the request
// in bufs[i] and goes back to names[i]. The headers point into the ring
// itself, which lives on the heap for the listener's lifetime.
type batch struct {
	in     [batchSize]mmsghdr
	out    [batchSize]mmsghdr
	inIov  [batchSize]syscall.Iovec
	outIov [batchSize]syscall.Iovec
	names  [batchSize]syscall.RawSockaddrInet6
	bufs   [batchSize][maxDatagram]byte
}

func newBatch() *batch {
	b := &batch{}
	for i := range b.in {
		b.inIov[i].Base = &b.bufs[i][0]
		b.inIov[i].SetLen(maxDatagram)
		b.in[i].hdr.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		b.in[i].hdr.Iov = &b.inIov[i]
		b.in[i].hdr.Iovlen = 1
		b.out[i].hdr.Iov = &b.outIov[i]
		b.out[i].hdr.Iovlen = 1
	}
	b.rearm(batchSize)
	return b
}

// rearm restores the fields the kernel overwrote in the first n receive
// headers: the address buffer's length and the message flags.
func (b *batch) rearm(n int) {
	for i := range b.in[:n] {
		b.in[i].hdr.Namelen = uint32(unsafe.Sizeof(b.names[i]))
		b.in[i].hdr.Flags = 0
	}
}

// answer runs the n received messages through the responder on sc and
// lays their answers out for sendmmsg, returning how many there are. A
// truncated datagram is counted and dropped.
func (b *batch) answer(r *Responder, sc *Scratch, n int) int {
	k := 0
	for i := range b.in[:n] {
		m := &b.in[i]
		if m.hdr.Flags&msgTrunc != 0 {
			r.truncated()
			continue
		}
		resp := r.Respond(sc, b.bufs[i][:m.n], sockaddrAddrPort(&b.names[i]))
		if resp == nil {
			continue
		}
		b.out[k].hdr.Name = m.hdr.Name
		b.out[k].hdr.Namelen = m.hdr.Namelen
		b.outIov[k].Base = &b.bufs[i][0]
		b.outIov[k].SetLen(copy(b.bufs[i][:], resp))
		k++
	}
	return k
}

// sockaddrAddrPort converts the source address recvmmsg wrote.
func sockaddrAddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), networkPort(&sa4.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), networkPort(&sa.Port))
	}
	return netip.AddrPort{}
}

// networkPort reads a sockaddr port, which is stored big-endian.
func networkPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

// serve is one listener's packet loop: one recvmmsg takes up to
// batchSize datagrams, Respond answers each on the listener's Scratch,
// and one sendmmsg returns the answers. Both calls run through the
// socket's RawConn, so an empty queue or a full send buffer parks the
// goroutine in the netpoller like any other read or write. Nothing is
// allocated per batch (TestBatchAnswerZeroAllocs).
func (s *Server) serve(c *net.UDPConn) {
	defer s.wg.Done()
	raw, err := c.SyscallConn()
	if err != nil {
		return
	}
	sc := &Scratch{}
	b := newBatch()
	var got, sent, ready int
	recv := func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(sysRecvmmsg, fd, uintptr(unsafe.Pointer(&b.in[0])), batchSize, syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN {
			return false
		}
		got = 0
		if errno == 0 {
			got = int(n)
		}
		return true
	}
	send := func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&b.out[sent])), uintptr(ready-sent), syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			sent += int(n)
		case syscall.EAGAIN:
			return false
		default:
			sent++ // the kernel refused this answer: drop it and send the rest
		}
		return true
	}
	for {
		// RawConn fails only once Close has closed the socket.
		if raw.Read(recv) != nil {
			return
		}
		ready, sent = b.answer(s.responder, sc, got), 0
		for sent < ready {
			if raw.Write(send) != nil {
				return
			}
		}
		b.rearm(got)
	}
}
