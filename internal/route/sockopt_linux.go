//go:build linux

package route

import "syscall"

// soReusePort is SO_REUSEPORT, absent from the stdlib syscall package
// on linux (it predates the constant's addition cutoff). The value is
// 15 on every linux architecture.
const soReusePort = 0xf

// msgTrunc is the receive flag that marks a datagram longer than the
// buffer it was read into.
const msgTrunc = syscall.MSG_TRUNC

// reusePortControl marks the socket SO_REUSEPORT before bind, so N
// listeners share one port and the kernel hashes flows across them —
// the standard sharding pattern for UDP packet services.
func reusePortControl(network, address string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}
