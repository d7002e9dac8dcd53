package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// Gob once per connection, fixed binary once per lease. hello and welcome
// carry nested configuration and cross the wire once per connection, so
// codec ergonomics win and they ride as gob (encodeMsg/decodeMsg). lease
// and fail cross it once per unit of work, where a fresh gob stream costs
// more than the probing it pays for, so they have a hand-rolled layout
// (appendLease/decodeLease, appendFail/decodeFail). Result rows are a
// uvarint lease ID followed by the v2 columnar shard frame
// (census.ShardRows).

// helloMsg registers an agent with the coordinator.
type helloMsg struct {
	// Name identifies the agent in logs and health reports.
	Name string
	// Capacity is how many leases the agent executes concurrently;
	// zero means 1.
	Capacity int
	// OwnedVPs lists vantage-point IDs the agent prefers to execute
	// (platform affinity: the VP "runs on" this agent). The coordinator
	// honours the preference when the owner has capacity and falls back
	// to any agent otherwise.
	OwnedVPs []int
}

// welcomeMsg equips a fresh agent to probe: the deterministic world to
// rebuild (or share, in-process), the fault weather, the probing
// configuration, and the round-invariant target list and blacklist so
// leases only need to carry spans.
type welcomeMsg struct {
	World     netsim.Config
	Faults    *netsim.FaultConfig
	Census    census.Config
	Targets   []netsim.IP
	Blacklist map[netsim.IP]netsim.ReplyKind
	Heartbeat time.Duration
}

// leaseMsg assigns one shard of one vantage point's round to an agent.
type leaseMsg struct {
	ID      uint64
	Round   uint64
	Attempt int
	// Slot is the vantage point's row slot in the coordinator's
	// combined matrix; the agent echoes it in the result frame.
	Slot int
	VP   platform.VP
	// Lo, Hi is the target span [Lo, Hi) within the welcome target
	// list.
	Lo, Hi int
}

// failMsg reports a lease the agent could not complete. Crash marks an
// injected VP crash (retryable infrastructure failure) as opposed to a
// wire-path error.
type failMsg struct {
	ID    uint64
	Err   string
	Crash bool
}

func encodeMsg(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("cluster: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

func decodeMsg(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("cluster: decode %T: %w", v, err)
	}
	return nil
}

// appendLease appends l's wire form: eight uvarints — ID, Round, Attempt,
// Slot, Lo, Hi, VP.ID, VP.City.Population — then five floats as IEEE-754
// bits, little-endian — VP.City.Loc (Lat, Lon), VP.Loc (Lat, Lon),
// VP.LoadFactor — then three strings, each a uvarint length and the
// bytes — VP.Name, VP.City.Name, VP.City.CC.
func appendLease(b []byte, l *leaseMsg) []byte {
	vp := &l.VP
	for _, v := range [...]uint64{l.ID, l.Round, uint64(l.Attempt), uint64(l.Slot), uint64(l.Lo), uint64(l.Hi),
		uint64(vp.ID), uint64(vp.City.Population)} {
		b = binary.AppendUvarint(b, v)
	}
	for _, f := range [...]float64{vp.City.Loc.Lat, vp.City.Loc.Lon, vp.Loc.Lat, vp.Loc.Lon, vp.LoadFactor} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, s := range [...]string{vp.Name, vp.City.Name, vp.City.CC} {
		b = appendString(b, s)
	}
	return b
}

// decodeLease undoes appendLease. Attempt, Slot, Lo and Hi index slices
// on the agent, so values beyond int32 are refused here.
func decodeLease(payload []byte) (leaseMsg, error) {
	r := wireReader{b: payload}
	var l leaseMsg
	vp := &l.VP
	l.ID, l.Round = r.uvarint(), r.uvarint()
	for _, dst := range [...]*int{&l.Attempt, &l.Slot, &l.Lo, &l.Hi} {
		v := r.uvarint()
		r.bad = r.bad || v > math.MaxInt32
		*dst = int(v)
	}
	vp.ID, vp.City.Population = int(r.uvarint()), int(r.uvarint())
	for _, dst := range [...]*float64{&vp.City.Loc.Lat, &vp.City.Loc.Lon, &vp.Loc.Lat, &vp.Loc.Lon, &vp.LoadFactor} {
		if b := r.take(8); b != nil {
			*dst = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	}
	for _, dst := range [...]*string{&vp.Name, &vp.City.Name, &vp.City.CC} {
		*dst = r.str()
	}
	return l, r.finish("lease")
}

// appendFail appends f's wire form: uvarint ID, a flag byte (1: Crash),
// then Err as a uvarint length and the bytes.
func appendFail(b []byte, f *failMsg) []byte {
	b = binary.AppendUvarint(b, f.ID)
	if f.Crash {
		return appendString(append(b, 1), f.Err)
	}
	return appendString(append(b, 0), f.Err)
}

// decodeFail undoes appendFail.
func decodeFail(payload []byte) (failMsg, error) {
	r := wireReader{b: payload}
	f := failMsg{ID: r.uvarint()}
	if flags := r.take(1); flags != nil {
		f.Crash, r.bad = flags[0] == 1, flags[0] > 1
	}
	f.Err = r.str()
	return f, r.finish("fail")
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// wireReader consumes a lease or fail payload. A varint that is truncated
// or overflows, or a length beyond the bytes left, latches bad and reads
// as zero from then on, so decoders read straight through and check once,
// in finish; nothing is allocated beyond the bytes present.
type wireReader struct {
	b   []byte
	bad bool
}

// take returns the next n bytes, or nil once the reader is bad.
func (r *wireReader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) str() string { return string(r.take(r.uvarint())) }

// finish reports a payload that was truncated, malformed, or longer than
// its message.
func (r *wireReader) finish(what string) error {
	if r.bad || len(r.b) != 0 {
		return fmt.Errorf("cluster: malformed %s payload", what)
	}
	return nil
}

// splitRowsPayload splits a rows payload into its uvarint lease ID and
// the encoded census.ShardRows frame behind it.
func splitRowsPayload(payload []byte) (uint64, []byte, error) {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("cluster: rows frame missing lease ID")
	}
	return id, payload[n:], nil
}
