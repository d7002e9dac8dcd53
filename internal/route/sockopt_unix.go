//go:build unix && !linux

package route

import "syscall"

// msgTrunc is the receive flag that marks a datagram longer than the
// buffer it was read into.
const msgTrunc = syscall.MSG_TRUNC

// reusePortControl is a no-op off linux: the second bind of the same
// port fails there and the server falls back to a single listener.
func reusePortControl(network, address string, c syscall.RawConn) error { return nil }
