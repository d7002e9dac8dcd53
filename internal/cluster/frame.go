// Package cluster is the distributed control plane of the census: a
// coordinator that splits the target list into shard leases, hands them
// to registered vantage-point agents with deadlines, and folds the
// partial rows streaming back into the combined matrix; and the agent
// that owns netsim vantage points, executes leased shards through
// prober.Run, heartbeats for liveness, and streams results home.
//
// The paper's census was this system in the flesh — hundreds of
// PlanetLab vantage points probing on behalf of a central repository
// (Sec. 3), on a platform that degraded daily. The subsystem follows the
// same operational shape (ROADMAP items 1–2): work moves as leases so a
// crashed or hung agent's shards are re-executed by someone else rather
// than lost, retry budgets and backoff reuse the single-process
// quarantine machinery, and everything runs over a minimal
// length-prefixed protocol that works identically on a real TCP loopback
// and an in-process net.Pipe, so N-agent censuses are deterministic
// inside one test binary.
//
// Because the netsim substrate draws every reply as a pure function of
// (seed, VP, target, round) and the campaign fold is a per-cell min —
// commutative, associative, idempotent — a census distributed across any
// number of agents, in any arrival order, under agent loss and
// re-leasing, produces combined rows, greylists, and analysis outcomes
// byte-identical to the single-process path. The tests hold it to
// exactly that.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// streamMagic opens every connection in both directions, so a peer
// speaking the wrong protocol fails the handshake instead of confusing
// the frame parser. ACMC1 sent lease and fail payloads as gob; ACMC2
// sends them fixed binary, so an ACMC1 peer is refused here.
const streamMagic = "ACMC2\n"

// Frame types. A frame on the wire is a 4-byte big-endian length of what
// follows (type byte + payload), then the type byte, then the payload.
// proto.go lays out the payloads: hello and welcome are gob, lease and
// fail fixed binary, rows a uvarint lease ID followed by a census shard
// frame (the v2 columnar codec, census.ShardRows); heartbeat and shutdown
// have none.
const (
	frameHello     = byte(1) // agent -> coordinator: registration
	frameWelcome   = byte(2) // coordinator -> agent: world + census config
	frameLease     = byte(3) // coordinator -> agent: shard lease
	frameRows      = byte(4) // agent -> coordinator: shard result rows
	frameFail      = byte(5) // agent -> coordinator: lease failed
	frameHeartbeat = byte(6) // agent -> coordinator: liveness
	frameShutdown  = byte(7) // coordinator -> agent: drain and exit
)

// DefaultMaxFrame bounds a single frame; a wide shard of a large world
// fits comfortably, a hostile length prefix does not.
const DefaultMaxFrame = 64 << 20

// appendFrame appends a whole frame — length, type, then the payload
// parts back to back — to dst, growing it at most once, so every frame is
// assembled in one buffer and reaches the transport as a single Write
// (the agent-churn harness counts frame types by inspecting writes).
func appendFrame(dst []byte, typ byte, parts ...[]byte) []byte {
	n := 1
	for _, p := range parts {
		n += len(p)
	}
	dst = slices.Grow(dst, 4+n)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, typ)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// readFrame reads one frame, rejecting empty frames and length prefixes
// beyond max before allocating.
func readFrame(r io.Reader, max int) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, fmt.Errorf("cluster: empty frame")
	}
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if n > uint32(max) {
		return 0, nil, fmt.Errorf("cluster: %d-byte frame exceeds the %d-byte cap", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// readMagic consumes and verifies the peer's protocol magic.
func readMagic(r io.Reader) error {
	var got [len(streamMagic)]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if string(got[:]) != streamMagic {
		return fmt.Errorf("cluster: peer is not speaking the census protocol (got %q)", got)
	}
	return nil
}
