// Package cluster is the distributed control plane of the census: a
// coordinator that leases batches of (vantage point, target span) units
// to registered agents with deadlines, and folds the partial rows
// streaming back into the combined matrix; and the agent that owns
// netsim vantage points, executes leased units through
// census.ProbeShard and streams results home.
//
// The paper's census was this system in the flesh — hundreds of
// PlanetLab vantage points probing on behalf of a central repository
// (Sec. 3), on a platform that degraded daily. The subsystem follows the
// same operational shape: work moves as leases so a crashed or hung
// agent's shards are re-executed by someone else rather than lost, retry
// budgets and backoff reuse the single-process quarantine machinery, and
// everything runs over a minimal length-prefixed protocol that works
// identically on a real TCP loopback and an in-process net.Pipe, so
// N-agent censuses are deterministic inside one test binary.
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
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// streamMagic opens every connection in both directions, so a peer
// speaking the wrong protocol fails the handshake instead of confusing
// the frame parser. ACMC1 sent lease and fail payloads as gob, ACMC2 the
// hello and the whole welcome, ACMC3 one unit per lease, ACMC4 a gob
// welcome head and heartbeats, ACMC5 a probe-cache flag byte in the
// welcome head, ACMC6 a self-describing ACMS1 shard frame per unit of a
// rows frame; ACMC7 is fixed binary throughout and reports a unit by its
// slot and result alone, so older peers are refused here.
const streamMagic = "ACMC7\n"

// Frame types. A frame on the wire is a 4-byte big-endian length of what
// follows (type byte + payload), then the type byte, then the payload.
// proto.go lays out the payloads, all fixed binary: hello, welcome, lease
// and fail field by field, rows a uvarint lease ID followed by each
// reported unit's slot, statistics, greylist and row; shutdown has none.
// Type 6, ACMC4's heartbeat, is unused.
const (
	frameHello    = byte(1) // agent -> coordinator: registration
	frameWelcome  = byte(2) // coordinator -> agent: world + census config
	frameLease    = byte(3) // coordinator -> agent: a batch of units
	frameRows     = byte(4) // agent -> coordinator: units' result rows
	frameFail     = byte(5) // agent -> coordinator: one unit failed
	frameShutdown = byte(7) // coordinator -> agent: drain and exit
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

// frameBufKeep bounds the body buffer a frameReader keeps from frame to
// frame. Leases and rows frames of census-width spans reuse it; a
// welcome, or anything else larger, is read into a buffer of its own that
// goes with it, so one big frame cannot pin memory for the life of the
// connection.
const frameBufKeep = 1 << 20

// frameReader reads one connection's frames through a buffer, so a frame
// that fits the buffer costs one read of the transport (one hand-off on
// net.Pipe, one syscall on TCP) rather than one for its header and one
// for its body, into a body buffer reused from frame to frame. A payload
// is valid until the next call to next; every payload decoder copies
// what it keeps.
type frameReader struct {
	r    *bufio.Reader
	max  int
	hdr  [4]byte
	body []byte
}

// newFrameReader reads frames off r, refusing length prefixes beyond max
// (non-positive means DefaultMaxFrame).
func newFrameReader(r io.Reader, max int) *frameReader {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	return &frameReader{r: bufio.NewReader(r), max: max}
}

// next reads one frame, rejecting empty frames and length prefixes beyond
// the cap before allocating.
func (fr *frameReader) next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n < 1 {
		return 0, nil, fmt.Errorf("cluster: empty frame")
	}
	if n > uint32(fr.max) {
		return 0, nil, fmt.Errorf("cluster: %d-byte frame exceeds the %d-byte cap", n, fr.max)
	}
	body := fr.body
	if int(n) > cap(body) {
		body = make([]byte, n)
		if n <= frameBufKeep {
			fr.body = body
		}
	}
	body = body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
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
