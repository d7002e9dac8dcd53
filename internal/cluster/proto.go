package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
	"anycastmap/internal/prober"
)

// Fixed binary for every frame the coordinator reads; gob only for the
// welcome's configuration head. hello, lease, fail and rows come in from
// any peer that can reach a -listen address, once per connection or once
// per lease, so each has a hand-rolled layout read through wireReader
// (appendHello/decodeHello, appendLease/decodeLease, appendFail/decodeFail,
// beginRowsFrame…endRowsFrame/decodeRows; a unit's rows are the v2
// columnar shard frame, census.ShardRows). The welcome is read only by
// agents, once per connection; its configuration head is nested and still
// changing, so it rides as gob, while the target list and blacklist that
// grow with the census follow it in fixed binary (appendWelcome).

// helloMsg registers an agent with the coordinator.
type helloMsg struct {
	// Name identifies the agent in logs and health reports.
	Name string
	// Capacity is how many leases the agent executes concurrently;
	// zero means 1.
	Capacity int
}

// welcomeMsg equips a fresh agent to probe: the configuration head, and
// the round-invariant target list and blacklist so leases only need to
// carry spans.
type welcomeMsg struct {
	Head      welcomeHead
	Targets   []netsim.IP
	Blacklist *prober.Greylist
}

// welcomeHead is the welcome's gob-encoded configuration: the
// deterministic world to rebuild (or share, in-process), the fault
// weather, the probing configuration and the heartbeat interval.
type welcomeHead struct {
	World     netsim.Config
	Faults    *netsim.FaultConfig
	Census    census.Config
	Heartbeat time.Duration
}

// leaseMsg assigns a batch of units of one round to an agent: a unit is
// one vantage point's row over one target span (census.Unit, as the
// round's scheduler hands it out), and a lease's units add up to at most
// Config.ShardTargets cells, so a lease over a full-width span carries
// one unit and one over a narrow span carries several. A unit's Slot —
// its vantage point's row in the coordinator's combined matrix — names it
// within its lease, and the agent echoes it in the unit's rows or fail;
// its Span indexes the welcome target list. Index stays on the
// coordinator.
type leaseMsg struct {
	ID    uint64
	Units []census.Unit
}

// failMsg reports a unit the agent could not complete, named by its
// lease and its slot. Crash marks an injected VP crash (retryable
// infrastructure failure) as opposed to a wire-path error.
type failMsg struct {
	ID    uint64
	Slot  int
	Err   string
	Crash bool
}

// appendHello appends h's wire form: uvarint Capacity, then Name as a
// uvarint length and the bytes.
func appendHello(b []byte, h *helloMsg) []byte {
	return appendString(binary.AppendUvarint(b, uint64(h.Capacity)), h.Name)
}

// decodeHello undoes appendHello. Capacity bounds the leases an agent is
// handed at once, so values beyond int32 are refused here.
func decodeHello(payload []byte) (helloMsg, error) {
	r := wireReader{b: payload}
	c := r.uvarint()
	r.bad = r.bad || c > math.MaxInt32
	h := helloMsg{Capacity: int(c), Name: r.str()}
	return h, r.finish("hello")
}

// appendWelcome appends w's wire form: the gob-encoded head as a uvarint
// length and the bytes; the targets as a uvarint count and 4 bytes each,
// little-endian; then the blacklist as a greylist section
// (census.AppendGreylist): a uvarint count, then per host in strictly
// ascending address order a uvarint address delta and its kind byte.
func appendWelcome(b []byte, w *welcomeMsg) ([]byte, error) {
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(&w.Head); err != nil {
		return nil, fmt.Errorf("cluster: encode welcome: %w", err)
	}
	b = binary.AppendUvarint(b, uint64(head.Len()))
	b = append(b, head.Bytes()...)
	b = binary.AppendUvarint(b, uint64(len(w.Targets)))
	for _, ip := range w.Targets {
		b = binary.LittleEndian.AppendUint32(b, uint32(ip))
	}
	return census.AppendGreylist(b, w.Blacklist), nil
}

// decodeWelcome undoes appendWelcome. The fixed-binary parts are checked
// before the head is handed to gob, and the head must be exactly one gob
// value.
func decodeWelcome(payload []byte) (welcomeMsg, error) {
	r := wireReader{b: payload}
	var w welcomeMsg
	head := r.take(r.uvarint())
	n := r.uvarint()
	r.bad = r.bad || n > uint64(len(r.b))/4
	if raw := r.take(4 * n); raw != nil {
		w.Targets = make([]netsim.IP, n)
		for i := range w.Targets {
			w.Targets[i] = netsim.IP(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	if !r.bad {
		var err error
		if w.Blacklist, r.b, err = census.DecodeGreylist(r.b); err != nil {
			return welcomeMsg{}, fmt.Errorf("cluster: welcome blacklist: %w", err)
		}
	}
	if err := r.finish("welcome"); err != nil {
		return welcomeMsg{}, err
	}
	hr := bytes.NewReader(head)
	if err := gob.NewDecoder(hr).Decode(&w.Head); err != nil {
		return welcomeMsg{}, fmt.Errorf("cluster: decode welcome: %w", err)
	}
	if hr.Len() != 0 {
		return welcomeMsg{}, fmt.Errorf("cluster: malformed welcome payload")
	}
	return w, nil
}

// appendLease appends l's wire form: three uvarints — ID, the round of
// its units, the unit count — then per unit six uvarints — Attempt, Slot,
// Span.Lo, Span.Hi, VP.ID, VP.City.Population — five floats as IEEE-754
// bits, little-endian — VP.City.Loc (Lat, Lon), VP.Loc (Lat, Lon),
// VP.LoadFactor — and three strings, each a uvarint length and the
// bytes — VP.Name, VP.City.Name, VP.City.CC.
func appendLease(b []byte, l *leaseMsg) []byte {
	var round uint64
	if len(l.Units) > 0 {
		round = l.Units[0].Round
	}
	b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, l.ID), round), uint64(len(l.Units)))
	for i := range l.Units {
		u := &l.Units[i]
		vp := &u.VP
		for _, v := range [...]uint64{uint64(u.Attempt), uint64(u.Slot), uint64(u.Span.Lo), uint64(u.Span.Hi),
			uint64(vp.ID), uint64(vp.City.Population)} {
			b = binary.AppendUvarint(b, v)
		}
		for _, f := range [...]float64{vp.City.Loc.Lat, vp.City.Loc.Lon, vp.Loc.Lat, vp.Loc.Lon, vp.LoadFactor} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		for _, s := range [...]string{vp.Name, vp.City.Name, vp.City.CC} {
			b = appendString(b, s)
		}
	}
	return b
}

// minUnitBytes is the shortest wire form of a lease unit: six one-byte
// uvarints, five floats and three empty strings.
const minUnitBytes = 6 + 5*8 + 3

// decodeLease undoes appendLease. The unit count is bounded by the bytes
// left before the units are allocated. Attempt, Slot, Lo and Hi index
// slices on the agent, so values beyond int32 are refused here, as are a
// lease of no units, a span with Lo > Hi and a slot named twice.
func decodeLease(payload []byte) (leaseMsg, error) {
	r := wireReader{b: payload}
	l := leaseMsg{ID: r.uvarint()}
	round, n := r.uvarint(), r.uvarint()
	r.bad = r.bad || n == 0 || n > uint64(len(r.b))/minUnitBytes
	if r.bad {
		return leaseMsg{}, r.finish("lease")
	}
	l.Units = make([]census.Unit, n)
	for i := range l.Units {
		u := &l.Units[i]
		u.Round = round
		vp := &u.VP
		for _, dst := range [...]*int{&u.Attempt, &u.Slot, &u.Span.Lo, &u.Span.Hi} {
			v := r.uvarint()
			r.bad = r.bad || v > math.MaxInt32
			*dst = int(v)
		}
		r.bad = r.bad || u.Span.Lo > u.Span.Hi
		vp.ID, vp.City.Population = int(r.uvarint()), int(r.uvarint())
		for _, dst := range [...]*float64{&vp.City.Loc.Lat, &vp.City.Loc.Lon, &vp.Loc.Lat, &vp.Loc.Lon, &vp.LoadFactor} {
			if b := r.take(8); b != nil {
				*dst = math.Float64frombits(binary.LittleEndian.Uint64(b))
			}
		}
		for _, dst := range [...]*string{&vp.Name, &vp.City.Name, &vp.City.CC} {
			*dst = r.str()
		}
	}
	if err := r.finish("lease"); err != nil {
		return leaseMsg{}, err
	}
	slots := make([]int, n)
	for i, u := range l.Units {
		slots[i] = u.Slot
	}
	slices.Sort(slots)
	for i := 1; i < len(slots); i++ {
		if slots[i] == slots[i-1] {
			return leaseMsg{}, fmt.Errorf("cluster: lease names slot %d twice", slots[i])
		}
	}
	return l, nil
}

// appendFail appends f's wire form: uvarint ID, uvarint Slot, a flag byte
// (1: Crash), then Err as a uvarint length and the bytes.
func appendFail(b []byte, f *failMsg) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, f.ID), uint64(f.Slot))
	if f.Crash {
		return appendString(append(b, 1), f.Err)
	}
	return appendString(append(b, 0), f.Err)
}

// decodeFail undoes appendFail; a slot beyond int32 is refused.
func decodeFail(payload []byte) (failMsg, error) {
	r := wireReader{b: payload}
	f := failMsg{ID: r.uvarint()}
	slot := r.uvarint()
	r.bad = r.bad || slot > math.MaxInt32
	f.Slot = int(slot)
	if flags := r.take(1); flags != nil {
		f.Crash, r.bad = flags[0] == 1, flags[0] > 1
	}
	f.Err = r.str()
	return f, r.finish("fail")
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// wireReader consumes a fixed-binary payload. A varint that is truncated
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

// decodeRows reads a rows frame's payload: a uvarint lease ID, then
// one or more units, each a 4-byte big-endian length and that many bytes
// of census.ShardRows frame. Each unit's frame is decoded as it is met, so
// nothing is allocated for a unit the payload does not hold.
func decodeRows(payload []byte) (uint64, []*census.ShardRows, error) {
	r := wireReader{b: payload}
	id := r.uvarint()
	var srs []*census.ShardRows
	for !r.bad && len(r.b) > 0 {
		n := r.take(4)
		if n == nil {
			break
		}
		frame := r.take(uint64(binary.BigEndian.Uint32(n)))
		if frame == nil {
			break
		}
		sr, err := census.DecodeShardRows(frame)
		if err != nil {
			return 0, nil, err
		}
		srs = append(srs, sr)
	}
	r.bad = r.bad || len(srs) == 0
	if err := r.finish("rows"); err != nil {
		return 0, nil, err
	}
	return id, srs, nil
}
