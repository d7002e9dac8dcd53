//go:build !unix

package route

import "syscall"

// msgTrunc is zero where the syscall package has no MSG_TRUNC (Windows,
// Plan 9, wasm): there a truncated datagram surfaces as a read error,
// which the serve loop drops without counting.
const msgTrunc = 0

// reusePortControl is a no-op off linux: the second bind of the same
// port fails there and the server falls back to a single listener.
func reusePortControl(network, address string, c syscall.RawConn) error { return nil }
