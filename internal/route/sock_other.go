//go:build !linux || !(amd64 || arm64)

package route

import "net"

// serve is one listener's packet loop where no batched socket calls are
// wired up: one read and one write per datagram. The request buffer is
// the loop's own, everything else it touches lives in its Scratch, and
// the AddrPort calls keep the source address a stack value: zero heap
// allocations per packet.
func (s *Server) serve(c *net.UDPConn) {
	defer s.wg.Done()
	sc := &Scratch{}
	req := make([]byte, maxDatagram)
	for {
		n, _, flags, src, err := c.ReadMsgUDPAddrPort(req, nil)
		if err != nil {
			if s.closed.Load() {
				return
			}
			continue // transient; keep serving
		}
		if flags&msgTrunc != 0 {
			s.responder.truncated()
			continue
		}
		if resp := s.responder.Respond(sc, req[:n], src); resp != nil {
			c.WriteToUDPAddrPort(resp, src)
		}
	}
}
