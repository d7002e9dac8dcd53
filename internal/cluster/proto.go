package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// Fixed binary for every frame, each laid out by a hand-rolled append and
// read back through wireReader: appendHello/decodeHello,
// appendWelcome/decodeWelcome, appendLease/decodeLease,
// appendFail/decodeFail, and beginRowsFrame…endRowsFrame/rowsUnit (a
// unit's result, census.ShardRows, read at its leased width). A
// decoder refuses a truncated or overlong varint, a flag byte other than
// 0 or 1 and a trailing byte, none of which its append writes.

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

// welcomeHead is what an agent reads of the coordinator's configuration:
// the deterministic world to rebuild (or share, in-process), the fault
// weather, and the census Rate and Seed that census.ProbeShard probes
// with. Retry budgets, backoff and worker counts stay on the coordinator.
type welcomeHead struct {
	World  netsim.Config
	Faults *netsim.FaultConfig
	Rate   float64
	Seed   uint64
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
	h := helloMsg{Capacity: r.int(), Name: r.str()}
	return h, r.finish("hello")
}

// appendWelcome appends w's wire form: the head (appendHead); the targets
// as a uvarint count and 4 bytes each, little-endian; then the blacklist
// as a greylist section (census.AppendGreylist): a uvarint count, then per
// host in strictly ascending address order a uvarint address delta and
// its kind byte.
func appendWelcome(b []byte, w *welcomeMsg) []byte {
	b = binary.AppendUvarint(appendHead(b, &w.Head), uint64(len(w.Targets)))
	for _, ip := range w.Targets {
		b = binary.LittleEndian.AppendUint32(b, uint32(ip))
	}
	return census.AppendGreylist(b, w.Blacklist)
}

// appendHead appends h's wire form: the world's Seed, Epoch and
// Unicast24s as uvarints, its nine float fields as IEEE-754 bits,
// little-endian, in declaration order (DeploymentInflation … JitterMs);
// a flag byte for Faults and, when
// set, its Seed and RecoveryAttempts as uvarints and its seven fractions
// as floats in declaration order; then Rate as a float and Seed as a
// uvarint.
func appendHead(b []byte, h *welcomeHead) []byte {
	c := &h.World
	b = appendUvarints(b, c.Seed, c.Epoch, uint64(c.Unicast24s))
	for _, f := range [...]float64{c.DeploymentInflation, c.ResponsiveFraction, c.AdminFilteredFraction,
		c.HostProhibitedFraction, c.NetProhibitedFraction, c.StretchBase, c.StretchExtra, c.AccessMs, c.JitterMs} {
		b = appendFloat(b, f)
	}
	b = appendFlag(b, h.Faults != nil)
	if f := h.Faults; f != nil {
		b = appendUvarints(b, f.Seed, uint64(f.RecoveryAttempts))
		for _, v := range [...]float64{f.CrashFraction, f.CrashStickiness, f.FlapFraction, f.FlapWindow,
			f.BurstLossFraction, f.BurstLossProb, f.TargetOutageFraction} {
			b = appendFloat(b, v)
		}
	}
	return binary.AppendUvarint(appendFloat(b, h.Rate), h.Seed)
}

// head reads what appendHead wrote.
func (r *wireReader) head() welcomeHead {
	var h welcomeHead
	c := &h.World
	c.Seed, c.Epoch, c.Unicast24s = r.uvarint(), r.uvarint(), r.int()
	for _, dst := range [...]*float64{&c.DeploymentInflation, &c.ResponsiveFraction, &c.AdminFilteredFraction,
		&c.HostProhibitedFraction, &c.NetProhibitedFraction, &c.StretchBase, &c.StretchExtra, &c.AccessMs, &c.JitterMs} {
		*dst = r.float()
	}
	if r.flag() {
		f := &netsim.FaultConfig{Seed: r.uvarint(), RecoveryAttempts: r.int()}
		for _, dst := range [...]*float64{&f.CrashFraction, &f.CrashStickiness, &f.FlapFraction, &f.FlapWindow,
			&f.BurstLossFraction, &f.BurstLossProb, &f.TargetOutageFraction} {
			*dst = r.float()
		}
		h.Faults = f
	}
	h.Rate, h.Seed = r.float(), r.uvarint()
	return h
}

// decodeWelcome undoes appendWelcome. An agent builds its world from the
// head, and netsim.New panics on a configuration that fails Validate, so a
// head whose world or fault config fails Validate, or whose probing rate
// fails prober.CheckRate, is refused here.
func decodeWelcome(payload []byte) (welcomeMsg, error) {
	r := wireReader{b: payload}
	w := welcomeMsg{Head: r.head()}
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
	if err := w.Head.validate(); err != nil {
		return welcomeMsg{}, fmt.Errorf("cluster: welcome: %w", err)
	}
	return w, nil
}

// validate reports a world or fault config an agent cannot build, or a
// rate it cannot probe at.
func (h *welcomeHead) validate() error {
	if err := prober.CheckRate(h.Rate); err != nil {
		return err
	}
	if err := h.World.Validate(); err != nil {
		return err
	}
	if h.Faults != nil {
		return h.Faults.Validate()
	}
	return nil
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
	b = appendUvarints(b, l.ID, round, uint64(len(l.Units)))
	for i := range l.Units {
		u := &l.Units[i]
		vp := &u.VP
		b = appendUvarints(b, uint64(u.Attempt), uint64(u.Slot), uint64(u.Span.Lo), uint64(u.Span.Hi),
			uint64(vp.ID), uint64(vp.City.Population))
		for _, f := range [...]float64{vp.City.Loc.Lat, vp.City.Loc.Lon, vp.Loc.Lat, vp.Loc.Lon, vp.LoadFactor} {
			b = appendFloat(b, f)
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
// lease of no units, a span with Lo > Hi, a slot named twice and a VP no
// probe can be sent from (placedVP).
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
			*dst = r.int()
		}
		r.bad = r.bad || u.Span.Lo > u.Span.Hi
		vp.ID, vp.City.Population = int(r.uvarint()), int(r.uvarint())
		for _, dst := range [...]*float64{&vp.City.Loc.Lat, &vp.City.Loc.Lon, &vp.Loc.Lat, &vp.Loc.Lon, &vp.LoadFactor} {
			*dst = r.float()
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
		if err := placedVP(u.VP); err != nil {
			return leaseMsg{}, fmt.Errorf("cluster: lease unit for slot %d: %w", u.Slot, err)
		}
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

// placedVP refuses a vantage point whose location or city location is not
// a coordinate (NaN, infinite or beyond ±90/±180) or whose load factor is
// negative or not finite: every distance from a NaN location is NaN, and
// the agent's session build would rank no replica at all.
func placedVP(vp platform.VP) error {
	if !vp.Loc.Valid() || !vp.City.Loc.Valid() {
		return fmt.Errorf("VP %d placed at %v in a city at %v", vp.ID, vp.Loc, vp.City.Loc)
	}
	if !(vp.LoadFactor >= 0) || math.IsInf(vp.LoadFactor, 1) {
		return fmt.Errorf("VP %d has load factor %v", vp.ID, vp.LoadFactor)
	}
	return nil
}

// appendFail appends f's wire form: uvarint ID, uvarint Slot, a flag byte
// (1: Crash), then Err as a uvarint length and the bytes.
func appendFail(b []byte, f *failMsg) []byte {
	b = appendUvarints(b, f.ID, uint64(f.Slot))
	return appendString(appendFlag(b, f.Crash), f.Err)
}

// decodeFail undoes appendFail; a slot beyond int32 is refused.
func decodeFail(payload []byte) (failMsg, error) {
	r := wireReader{b: payload}
	f := failMsg{ID: r.uvarint(), Slot: r.int(), Crash: r.flag(), Err: r.str()}
	return f, r.finish("fail")
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendFlag(b []byte, set bool) []byte {
	if set {
		return append(b, 1)
	}
	return append(b, 0)
}

// wireReader consumes a fixed-binary payload. A varint that is truncated,
// overflows or is longer than it needs to be, a flag byte other than 0 or
// 1, or a length beyond the bytes left latches bad and reads as zero from
// then on, so decoders read straight through and check once, in finish;
// nothing is allocated beyond the bytes present.
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
	if r.bad || n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a uvarint that indexes or sizes something on the reading
// side, so values beyond int32 are refused.
func (r *wireReader) int() int {
	v := r.uvarint()
	r.bad = r.bad || v > math.MaxInt32
	return int(v)
}

func (r *wireReader) float() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *wireReader) flag() bool {
	b := r.take(1)
	r.bad = r.bad || b != nil && b[0] > 1
	return b != nil && b[0] == 1
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

// A rows frame reports units of one lease. After the frame header
// (appendFrame's length and type byte) its payload is a uvarint lease ID,
// then per unit:
//
//	slot    uvarint — the unit's slot, naming it within the lease
//	stats   seven uvarints — Sent, Echo, Errors, Timeouts, SourceDropped,
//	        FaultLost, Completion in ns (census.ShardStats)
//	grey    the greylist section (census.AppendGreylist)
//	row     the v2 row payload (census.AppendRow), as many cells as the
//	        unit's span is wide
//
// Nothing the lease already says — round, span, vantage point — is
// repeated, and the row delimits itself at its unit's width, so the
// coordinator reads a unit only once it has found the slot in a lease the
// agent holds, and then at that unit's width: what a frame can make it
// allocate is bounded by the leases it issued, not by the frame. The
// agent builds a frame a unit at a time as its units finish, encoding
// each result in place: beginRowsFrame, appendRowsUnit per unit,
// endRowsFrame.

// beginRowsFrame appends a rows frame's header and lease ID, its length
// left for endRowsFrame to fill.
func beginRowsFrame(dst []byte, id uint64) []byte {
	return binary.AppendUvarint(append(dst, 0, 0, 0, 0, frameRows), id)
}

// appendRowsUnit appends the result of the unit in slot to a frame begun
// by beginRowsFrame. Into a buffer with room, a result with an empty
// greylist appends without allocating.
func appendRowsUnit(dst []byte, slot int, sr *census.ShardRows) []byte {
	st := &sr.Stats
	dst = appendUvarints(dst, uint64(slot), uint64(st.Sent), uint64(st.Echo), uint64(st.Errors),
		uint64(st.Timeouts), uint64(st.SourceDropped), uint64(st.FaultLost), uint64(st.Completion))
	return census.AppendRow(census.AppendGreylist(dst, sr.Greylist), sr.RTTus)
}

// endRowsFrame fills in the length of the rows frame that begins at
// frame[start:].
func endRowsFrame(frame []byte, start int) []byte {
	binary.BigEndian.PutUint32(frame[start:], uint32(len(frame)-start-4))
	return frame
}

// rowsUnit reads what appendRowsUnit wrote after a unit's slot into sr,
// whose row becomes width cells wide (its storage reused). The counters
// are refused beyond int32, as every count a prober run over a unit
// reports fits it; census.ShardRows.CheckStats holds them to the unit.
func (r *wireReader) rowsUnit(sr *census.ShardRows, width int) error {
	st := &sr.Stats
	for _, dst := range [...]*int{&st.Sent, &st.Echo, &st.Errors, &st.Timeouts, &st.SourceDropped, &st.FaultLost} {
		*dst = r.int()
	}
	st.Completion = time.Duration(r.uvarint())
	if r.bad {
		return fmt.Errorf("cluster: malformed rows unit")
	}
	var err error
	if sr.Greylist, r.b, err = census.DecodeGreylist(r.b); err != nil {
		r.bad = true
		return err
	}
	sr.RTTus = slices.Grow(sr.RTTus[:0], width)[:width]
	if r.b, err = census.DecodeRow(r.b, sr.RTTus); err != nil {
		r.bad = true
	}
	return err
}
