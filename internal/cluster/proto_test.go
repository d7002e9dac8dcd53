package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

func sampleLease() leaseMsg {
	return leaseMsg{
		ID: 1<<40 + 7,
		Units: []census.Unit{
			{
				Round: 3, Attempt: 2, Slot: 137, Span: census.Span{Lo: 16384, Hi: 32768},
				VP: platform.VP{
					ID:         -4, // signed on the wire: the codec carries any platform's IDs
					Name:       "planetlab2.cs.example.edu",
					City:       cities.City{Name: "São Paulo", CC: "BR", Loc: geo.Coord{Lat: -23.55, Lon: -46.63}, Population: 12_300_000},
					Loc:        geo.Coord{Lat: -23.61, Lon: -46.7},
					LoadFactor: 1.75,
				},
			},
			{
				Round: 3, Slot: 4, Span: census.Span{Lo: 16384, Hi: 32768},
				VP: platform.VP{ID: 9, Name: "pl1.example.org", City: cities.City{Name: "Oslo", CC: "NO"}, LoadFactor: 1},
			},
		},
	}
}

func TestLeaseCodecRoundTrip(t *testing.T) {
	for _, l := range []leaseMsg{
		sampleLease(),
		{Units: []census.Unit{{}}},
		{ID: math.MaxUint64, Units: []census.Unit{{Round: math.MaxUint64, Attempt: math.MaxInt32, Slot: math.MaxInt32, Span: census.Span{Lo: math.MaxInt32, Hi: math.MaxInt32}}}},
	} {
		got, err := decodeLease(appendLease(nil, &l))
		if err != nil || !reflect.DeepEqual(got, l) {
			t.Fatalf("round-trip of %+v: %+v, %v", l, got, err)
		}
	}
	// Appending extends dst, and into a buffer with room it does not
	// allocate: the coordinator frames every lease out of one scratch.
	l := sampleLease()
	buf := appendLease([]byte("xy"), &l)
	if string(buf[:2]) != "xy" {
		t.Fatalf("appendLease overwrote dst: %q", buf[:2])
	}
	if n := testing.AllocsPerRun(100, func() { buf = appendLease(buf[:0], &l) }); n != 0 {
		t.Fatalf("appendLease into a reused buffer allocates %v times", n)
	}
}

func TestFailCodecRoundTrip(t *testing.T) {
	for _, f := range []failMsg{{}, {ID: 9, Slot: 137, Err: "netsim: VP crashed", Crash: true}, {ID: math.MaxUint64, Slot: math.MaxInt32, Err: strings.Repeat("e", 300)}} {
		got, err := decodeFail(appendFail(nil, &f))
		if err != nil || got != f {
			t.Fatalf("round-trip of %+v: %+v, %v", f, got, err)
		}
	}
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// leaseUnitBytes is u's wire form alone, behind a lease's ID, round and
// unit count.
func leaseUnitBytes(u census.Unit) []byte {
	u.Round = 0
	b := appendLease(nil, &leaseMsg{Units: []census.Unit{u}})
	return b[len(uvarints(0, 0, 1)):]
}

// Everything the decoders index or allocate by comes off the wire, so
// every way a payload can lie is an error — never a panic, an allocation
// sized by the lie, or a value the agent would index a slice with.
func TestLeaseAndFailDecodersRejectMalformed(t *testing.T) {
	l := sampleLease()
	lease := appendLease(nil, &l)
	fail := appendFail(nil, &failMsg{ID: 9, Slot: 137, Err: "boom", Crash: true})
	for n := 0; n < len(lease); n++ {
		if _, err := decodeLease(lease[:n]); err == nil {
			t.Fatalf("lease truncated to %d of %d bytes accepted", n, len(lease))
		}
	}
	for n := 0; n < len(fail); n++ {
		if _, err := decodeFail(fail[:n]); err == nil {
			t.Fatalf("fail truncated to %d of %d bytes accepted", n, len(fail))
		}
	}
	if _, err := decodeLease(append(lease[:len(lease):len(lease)], 0)); err == nil {
		t.Fatal("lease with a trailing byte accepted")
	}
	if _, err := decodeFail(append(fail[:len(fail):len(fail)], 0)); err == nil {
		t.Fatal("fail with a trailing byte accepted")
	}

	// Attempt, Slot, Lo, Hi beyond int32: each in turn.
	u := l.Units[0]
	head := uvarints(l.ID, u.Round, 1)
	fields := []uint64{uint64(u.Attempt), uint64(u.Slot), uint64(u.Span.Lo), uint64(u.Span.Hi)}
	tail := leaseUnitBytes(u)[len(uvarints(fields...)):]
	for i := range fields {
		lied := append([]uint64(nil), fields...)
		lied[i] = math.MaxInt32 + 1
		if _, err := decodeLease(append(append(head, uvarints(lied...)...), tail...)); err == nil {
			t.Fatalf("lease unit field %d beyond int32 accepted", i)
		}
	}
	// A lease of no units, a span that ends before it starts, and a slot
	// named twice are nothing an agent can execute.
	if _, err := decodeLease(uvarints(1, 1, 0)); err == nil {
		t.Fatal("lease of zero units accepted")
	}
	if _, err := decodeLease(append(uvarints(1, 1, 1), leaseUnitBytes(census.Unit{Span: census.Span{Lo: 9, Hi: 8}})...)); err == nil {
		t.Fatal("lease unit with Lo > Hi accepted")
	}
	// A VP no probe can be sent from: a coordinate that is NaN, infinite
	// or off the globe, at the VP or at its city, or a load factor that is
	// negative or not finite. A NaN location ranks no replica in the
	// agent's session build.
	for name, lie := range map[string]func(*platform.VP){
		"NaN VP latitude":         func(vp *platform.VP) { vp.Loc.Lat = math.NaN() },
		"NaN VP longitude":        func(vp *platform.VP) { vp.Loc.Lon = math.NaN() },
		"VP latitude beyond 90":   func(vp *platform.VP) { vp.Loc.Lat = 90.5 },
		"VP longitude beyond 180": func(vp *platform.VP) { vp.Loc.Lon = -180.5 },
		"infinite city latitude":  func(vp *platform.VP) { vp.City.Loc.Lat = math.Inf(-1) },
		"NaN city longitude":      func(vp *platform.VP) { vp.City.Loc.Lon = math.NaN() },
		"NaN load factor":         func(vp *platform.VP) { vp.LoadFactor = math.NaN() },
		"negative load factor":    func(vp *platform.VP) { vp.LoadFactor = -0.5 },
		"infinite load factor":    func(vp *platform.VP) { vp.LoadFactor = math.Inf(1) },
	} {
		bad := sampleLease()
		lie(&bad.Units[1].VP)
		if _, err := decodeLease(appendLease(nil, &bad)); err == nil || !strings.Contains(err.Error(), "slot 4") {
			t.Errorf("lease with a %s: %v", name, err)
		}
	}
	span := census.Span{Hi: 8}
	twice := appendLease(nil, &leaseMsg{ID: 1, Units: []census.Unit{{Slot: 3, Span: span}, {Slot: 5, Span: span}, {Slot: 3, Span: span}}})
	if _, err := decodeLease(twice); err == nil || !strings.Contains(err.Error(), "slot 3 twice") {
		t.Fatalf("lease naming slot 3 twice: %v", err)
	}
	// A unit count beyond what the payload holds fails before it is
	// believed: nothing is allocated in proportion to it.
	one := leaseUnitBytes(u)
	for _, n := range []uint64{2, 1 << 62} {
		if _, err := decodeLease(append(uvarints(1, 1, n), one...)); err == nil {
			t.Fatalf("lease claiming %d units over one unit's bytes accepted", n)
		}
	}
	// An 11-byte varint overflows uint64.
	overlong := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	if _, err := decodeLease(append(overlong, lease[len(uvarints(l.ID)):]...)); err == nil {
		t.Fatal("overlong lease ID varint accepted")
	}
	if _, err := decodeFail(append(overlong, fail[len(uvarints(9)):]...)); err == nil {
		t.Fatal("overlong fail ID varint accepted")
	}
	// A string length beyond the payload must fail before it is believed.
	if _, err := decodeFail(append(uvarints(9, 0), append([]byte{0}, uvarints(1<<62)...)...)); err == nil {
		t.Fatal("fail with a 2^62-byte error string accepted")
	}
	bare := append(uvarints(1, 1, 1, 0, 0, 0, 8, 5, 0), make([]byte, 5*8)...)
	if _, err := decodeLease(append(bare, uvarints(0, 0, 0)...)); err != nil {
		t.Fatalf("lease with three empty strings: %v", err)
	}
	if _, err := decodeLease(append(bare, uvarints(math.MaxUint64)...)); err == nil {
		t.Fatal("lease with a 2^64-byte VP name accepted")
	}
	// A fail names its unit: one without the slot (an ACMC3 fail) is
	// refused, as is a slot beyond int32.
	if _, err := decodeFail([]byte{9, 0, 0}); err == nil {
		t.Fatal("fail without a slot accepted")
	}
	if _, err := decodeFail(append(uvarints(9, math.MaxInt32+1), 0, 0)); err == nil {
		t.Fatal("fail with a slot beyond int32 accepted")
	}
	// Unknown flag bits are a newer or a confused peer.
	if _, err := decodeFail(append(uvarints(9, 0), 2, 0)); err == nil {
		t.Fatal("fail with unknown flag bits accepted")
	}
}

// reencodes holds decode∘append to a fixed point: bytes that decode are
// re-encoded, and that canonical form must decode and re-encode to
// itself. (Bytes, not values: a NaN coordinate is a legal payload and
// equals nothing, itself included.)
func reencodes[M any](t *testing.T, data []byte, decode func([]byte) (M, error), encode func([]byte, *M) []byte) {
	t.Helper()
	m, err := decode(data)
	if err != nil {
		return
	}
	canon := encode(nil, &m)
	if len(canon) > len(data) {
		t.Fatalf("canonical form (%d bytes) longer than the %d bytes it was decoded from", len(canon), len(data))
	}
	m2, err := decode(canon)
	if err != nil {
		t.Fatalf("re-encoded payload does not decode: %v", err)
	}
	if again := encode(nil, &m2); !bytes.Equal(again, canon) {
		t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", canon, again)
	}
}

func FuzzDecodeLease(f *testing.F) {
	l := sampleLease()
	f.Add(appendLease(nil, &l))
	f.Add(appendLease(nil, &leaseMsg{Units: []census.Unit{{}}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, data, decodeLease, appendLease)
		if l, err := decodeLease(data); err == nil {
			if len(l.Units) == 0 || len(l.Units)*minUnitBytes > len(data) {
				t.Fatalf("%d units decoded from %d bytes", len(l.Units), len(data))
			}
			slots := map[int]bool{}
			for _, u := range l.Units {
				for _, v := range [...]int{u.Attempt, u.Slot, u.Span.Lo, u.Span.Hi} {
					if v < 0 || v > math.MaxInt32 {
						t.Fatalf("decoded an index of %d", v)
					}
				}
				if u.Span.Lo > u.Span.Hi || slots[u.Slot] {
					t.Fatalf("decoded span %v of slot %d (seen: %v)", u.Span, u.Slot, slots[u.Slot])
				}
				slots[u.Slot] = true
				if vp := u.VP; !vp.Loc.Valid() || !vp.City.Loc.Valid() || !(vp.LoadFactor >= 0) || math.IsInf(vp.LoadFactor, 1) {
					t.Fatalf("decoded VP %d at %v in a city at %v, load factor %v", vp.ID, vp.Loc, vp.City.Loc, vp.LoadFactor)
				}
			}
		}
	})
}

func FuzzDecodeFail(f *testing.F) {
	f.Add(appendFail(nil, &failMsg{ID: 9, Slot: 137, Err: "netsim: VP crashed", Crash: true}))
	f.Add(appendFail(nil, &failMsg{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, data, decodeFail, appendFail)
		if f, err := decodeFail(data); err == nil && (f.Slot < 0 || f.Slot > math.MaxInt32) {
			t.Fatalf("decoded a slot of %d", f.Slot)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, frameLease, []byte("payload")), uint16(1024))
	f.Add(appendFrame(nil, frameShutdown), uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameRows}, uint16(64))
	f.Add([]byte{0, 0, 0, 0}, uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		// A small cap, never the 64 MiB default: the fuzzer would spend
		// its time zeroing buffers for lengths the cap exists to refuse.
		max := int(limit) + 1
		typ, payload, err := newFrameReader(bytes.NewReader(data), max).next()
		if err != nil {
			return
		}
		if 1+len(payload) > max {
			t.Fatalf("%d-byte frame passed a %d-byte cap", 1+len(payload), max)
		}
		if again := appendFrame(nil, typ, payload); !bytes.HasPrefix(data, again) {
			t.Fatalf("frame read from %x re-frames to %x", data, again)
		}
	})
}

// Older peers are turned away at the magic, in both directions, not
// parsed as ACMC7: an ACMC1 peer sends lease and fail payloads as gob, an
// ACMC2 peer its hello and the whole welcome, an ACMC3 peer one unit per
// lease and fails without a slot, an ACMC4 peer a gob welcome head and
// heartbeats, an ACMC5 peer a probe-cache flag byte in the welcome head,
// an ACMC6 peer a self-describing ACMS1 shard frame per unit of its rows.
// Every refusal is the one error, quoting the magic the peer
// sent.
func TestOldProtocolPeerRefused(t *testing.T) {
	for _, old := range []string{"ACMC1\n", "ACMC2\n", "ACMC3\n", "ACMC4\n", "ACMC5\n", "ACMC6\n"} {
		t.Run(strings.TrimSpace(old), func(t *testing.T) {
			refusal := "cluster: peer is not speaking the census protocol (got " + strconv.Quote(old) + ")"
			if err := readMagic(strings.NewReader(old)); err == nil || err.Error() != refusal {
				t.Fatalf("%q magic: %v, want %q", old, err, refusal)
			}

			// An agent dialling an old coordinator gives up with that error.
			coordSide, agentSide := net.Pipe()
			go func() {
				defer coordSide.Close()
				fr := newFrameReader(coordSide, 0)
				io.ReadFull(fr.r, make([]byte, len(streamMagic))) // the agent's magic
				if _, _, err := fr.next(); err != nil {           // its hello
					return
				}
				coordSide.Write([]byte(old))
			}()
			err := RunAgent(context.Background(), agentSide, AgentConfig{Name: "new"})
			if err == nil || !strings.HasSuffix(err.Error(), refusal) {
				t.Fatalf("agent against an old coordinator: %v, want %q", err, refusal)
			}

			// An old agent is dropped before its hello is read: it never
			// registers and never sees a welcome.
			world, _, h, _ := clusterTestbed(t)
			coord, err := NewCoordinator(Config{
				Campaign: census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()}),
				Targets:  h.Targets(),
				Census:   testCensusCfg(),
				World:    world,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			coordSide, agentSide = net.Pipe()
			if err := coord.Attach(coordSide); err != nil {
				t.Fatal(err)
			}
			defer agentSide.Close()
			agentSide.SetDeadline(time.Now().Add(5 * time.Second))
			hello := appendHello(nil, &helloMsg{Name: "old", Capacity: 1})
			go agentSide.Write(append([]byte(old), appendFrame(nil, frameHello, hello)...))
			got, err := io.ReadAll(agentSide)
			if err != nil && err != io.ErrClosedPipe {
				t.Fatalf("reading the coordinator's answer: %v", err)
			}
			if len(got) > len(streamMagic) {
				t.Fatalf("coordinator answered an old peer with %d bytes past its magic", len(got)-len(streamMagic))
			}
			if joined := coord.Stats().AgentsJoined; joined != 0 {
				t.Fatalf("old peer registered (%d joined)", joined)
			}
		})
	}
}

// A world an agent cannot build is an error on both ends, never a panic:
// the coordinator refuses to start with it, and an agent welcomed with it
// (by a coordinator that skipped the check) returns the decoder's refusal
// instead of reaching netsim.New, which panics on an invalid config.
func TestUnbuildableWorldRefused(t *testing.T) {
	_, _, h, _ := clusterTestbed(t)
	nanStretch := netsim.DefaultConfig()
	nanStretch.StretchBase = math.NaN()
	for name, head := range map[string]welcomeHead{
		"zero world":        {},
		"NaN StretchBase":   {World: nanStretch},
		"NaN CrashFraction": {World: netsim.DefaultConfig(), Faults: &netsim.FaultConfig{CrashFraction: math.NaN()}},
	} {
		t.Run(name, func(t *testing.T) {
			if coord, err := NewCoordinator(Config{
				Campaign: census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()}),
				Targets:  h.Targets(),
				World:    head.World,
				Faults:   head.Faults,
			}); err == nil {
				coord.Close()
				t.Fatal("coordinator started with a world no agent can build")
			}

			coordSide, agentSide := net.Pipe()
			go func() {
				defer coordSide.Close()
				fr := newFrameReader(coordSide, 0)
				io.ReadFull(fr.r, make([]byte, len(streamMagic))) // the agent's magic
				if _, _, err := fr.next(); err != nil {           // its hello
					return
				}
				welcome := appendWelcome(nil, &welcomeMsg{Head: head, Targets: h.Targets()})
				coordSide.Write(append([]byte(streamMagic), appendFrame(nil, frameWelcome, welcome)...))
				io.Copy(io.Discard, coordSide)
			}()
			err := RunAgent(context.Background(), agentSide, AgentConfig{Name: "a"})
			if err == nil || !strings.HasPrefix(err.Error(), "cluster: welcome: netsim:") {
				t.Fatalf("agent welcomed with %s: %v", name, err)
			}
		})
	}
}

func TestHelloCodec(t *testing.T) {
	for _, h := range []helloMsg{{Name: "agent-3", Capacity: 4}, {}, {Name: strings.Repeat("n", 300), Capacity: math.MaxInt32}} {
		got, err := decodeHello(appendHello(nil, &h))
		if err != nil || got != h {
			t.Fatalf("round-trip of %+v: %+v, %v", h, got, err)
		}
	}
	hello := appendHello(nil, &helloMsg{Name: "agent-3", Capacity: 4})
	for n := 0; n < len(hello); n++ {
		if _, err := decodeHello(hello[:n]); err == nil {
			t.Fatalf("hello truncated to %d of %d bytes accepted", n, len(hello))
		}
	}
	if _, err := decodeHello(append(hello[:len(hello):len(hello)], 0)); err == nil {
		t.Fatal("hello with a trailing byte accepted")
	}
	if _, err := decodeHello(appendString(binary.AppendUvarint(nil, math.MaxInt32+1), "greedy")); err == nil {
		t.Fatal("hello with a capacity beyond int32 accepted")
	}
	if _, err := decodeHello(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<62)); err == nil {
		t.Fatal("hello with a 2^62-byte name accepted")
	}
}

func sampleWelcome() welcomeMsg {
	bl := prober.NewGreylist()
	bl.Add(0x01020304, netsim.ReplyAdminFiltered)
	bl.Add(0x01020310, netsim.ReplyHostProhibited)
	bl.Add(0xFFFFFFFF, netsim.ReplyNetProhibited)
	return welcomeMsg{
		Head: welcomeHead{
			World:  netsim.DefaultConfig(),
			Faults: &netsim.FaultConfig{Seed: 7, CrashFraction: 0.1},
			Rate:   2000,
			Seed:   9,
		},
		Targets:   []netsim.IP{0x0A000001, 0, 0xFFFFFFFF, 0x0A000001},
		Blacklist: bl,
	}
}

// welcomeWith is the sample welcome's bytes with its head replaced by
// head, which may be any bytes at all.
func welcomeWith(head []byte) []byte {
	w := sampleWelcome()
	return append(head, appendWelcome(nil, &w)[len(appendHead(nil, &w.Head)):]...)
}

// Every field of the configuration structs the head carries crosses the
// wire: each is set to a distinct non-zero value by reflection, so a
// field added to netsim.Config, netsim.FaultConfig or welcomeHead without
// a place in appendHead and wireReader.head fails here instead of
// reaching agents as its zero value.
func TestWelcomeHeadCarriesEveryField(t *testing.T) {
	var h welcomeHead
	n := uint64(0)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), path)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(int64(n))
		case reflect.Uint64:
			v.SetUint(n<<40 | n)
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		default:
			t.Fatalf("%s: the welcome head has no wire form for a %v", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&h).Elem(), "welcomeHead")
	r := wireReader{b: appendHead(nil, &h)}
	got := r.head()
	if err := r.finish("head"); err != nil || !reflect.DeepEqual(got, h) {
		t.Fatalf("head round-trip (%v):\n got %+v %+v\nwant %+v %+v", err, got, got.Faults, h, h.Faults)
	}
}

func TestWelcomeCodec(t *testing.T) {
	want := sampleWelcome()
	enc := appendWelcome(nil, &want)
	got, err := decodeWelcome(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Head, want.Head) || !reflect.DeepEqual(got.Targets, want.Targets) ||
		!reflect.DeepEqual(got.Blacklist.Snapshot(), want.Blacklist.Snapshot()) {
		t.Fatalf("round-trip:\n%+v\n%+v", got, want)
	}
	// The blacklist arrives sorted, so the agent's plans read it without
	// sorting it first.
	for _, ip := range []netsim.IP{0x01020304, 0x01020310, 0xFFFFFFFF} {
		if !got.Blacklist.Freeze().Contains(ip) {
			t.Fatalf("frozen blacklist misses %v", ip)
		}
	}
	if got.Blacklist.Freeze().Len() != 3 {
		t.Fatalf("frozen blacklist holds %d hosts", got.Blacklist.Freeze().Len())
	}
	// No faults, no blacklist: both travel as their zero values.
	bare := welcomeMsg{Head: welcomeHead{World: netsim.DefaultConfig()}, Targets: []netsim.IP{1}}
	if got, err := decodeWelcome(appendWelcome(nil, &bare)); err != nil || got.Head.Faults != nil || got.Blacklist.Len() != 0 {
		t.Fatalf("bare welcome: %+v, %v", got, err)
	}

	for n := 0; n < len(enc); n++ {
		if _, err := decodeWelcome(enc[:n]); err == nil {
			t.Fatalf("welcome truncated to %d of %d bytes accepted", n, len(enc))
		}
	}
	if _, err := decodeWelcome(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("welcome with a trailing byte accepted")
	}
	// Bytes appendWelcome never writes: a varint longer than it needs to
	// be (the world seed 2015 in three bytes), and a flag byte other than
	// 0 or 1 for the fault config's presence.
	head := appendHead(nil, &want.Head)
	replaced := func(i int, with ...byte) []byte { // head with byte i replaced
		return append(append(append([]byte(nil), head[:i]...), with...), head[i+1:]...)
	}
	wc := &want.Head.World
	seedEnd := len(uvarints(wc.Seed)) - 1
	flag := len(uvarints(wc.Seed, wc.Epoch, uint64(wc.Unicast24s))) + 9*8 // the fault config's presence
	for name, lie := range map[string][]byte{
		"overlong world seed":    replaced(seedEnd, head[seedEnd]|0x80, 0),
		"faults presence byte 2": replaced(flag, 2),
	} {
		if _, err := decodeWelcome(welcomeWith(lie)); err == nil || !strings.Contains(err.Error(), "malformed welcome") {
			t.Errorf("welcome with an %s: %v", name, err)
		}
	}
	// A world or fault plan an agent cannot build is refused by the
	// decoder, not discovered by netsim.New's panic: NaN and infinities
	// included, which fail every bound.
	nan := math.NaN()
	for name, mutate := range map[string]func(*welcomeHead){
		"zero world":               func(h *welcomeHead) { h.World = netsim.Config{} },
		"NaN StretchBase":          func(h *welcomeHead) { h.World.StretchBase = nan },
		"infinite StretchBase":     func(h *welcomeHead) { h.World.StretchBase = math.Inf(1) },
		"NaN ResponsiveFraction":   func(h *welcomeHead) { h.World.ResponsiveFraction = nan },
		"NaN DeploymentInflation":  func(h *welcomeHead) { h.World.DeploymentInflation = nan },
		"NaN JitterMs":             func(h *welcomeHead) { h.World.JitterMs = nan },
		"NaN CrashFraction":        func(h *welcomeHead) { h.Faults.CrashFraction = nan },
		"negative FlapFraction":    func(h *welcomeHead) { h.Faults.FlapFraction = -0.5 },
		"negative RecoveryAttempt": func(h *welcomeHead) { h.Faults.RecoveryAttempts = -1 },
	} {
		lie := sampleWelcome()
		mutate(&lie.Head)
		if _, err := decodeWelcome(appendWelcome(nil, &lie)); err == nil {
			t.Errorf("welcome with a %s accepted", name)
		}
	}
	// A target count beyond the payload fails before it is believed.
	if _, err := decodeWelcome(append(binary.AppendUvarint(head, 1<<62), 0, 0, 0, 0, 0)); err == nil {
		t.Fatal("welcome with 2^62 targets accepted")
	}
	// The blacklist becomes every plan's skip mask and the campaign's
	// idea of who objects to probes: echo and unknown kinds, repeated and
	// descending addresses are refused.
	targets := binary.LittleEndian.AppendUint32(binary.AppendUvarint(head, 1), 0x0A000001)
	for name, bl := range map[string][]byte{
		"echo":       {1, 4, byte(netsim.ReplyEcho)},
		"timeout":    {1, 4, byte(netsim.ReplyTimeout)},
		"unknown":    {1, 4, 200},
		"repeated":   {2, 4, byte(netsim.ReplyAdminFiltered), 0, byte(netsim.ReplyAdminFiltered)},
		"overflowed": {2, 4, byte(netsim.ReplyAdminFiltered), 0xff, 0xff, 0xff, 0xff, 0x0f, byte(netsim.ReplyAdminFiltered)},
	} {
		if _, err := decodeWelcome(append(targets[:len(targets):len(targets)], bl...)); err == nil {
			t.Fatalf("welcome blacklist %s accepted", name)
		}
	}
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(appendHello(nil, &helloMsg{Name: "agent-0", Capacity: 4}))
	f.Add(appendHello(nil, &helloMsg{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, data, decodeHello, appendHello)
		if h, err := decodeHello(data); err == nil && (h.Capacity < 0 || h.Capacity > math.MaxInt32) {
			t.Fatalf("decoded a capacity of %d", h.Capacity)
		}
	})
}

func FuzzDecodeWelcome(f *testing.F) {
	w := sampleWelcome()
	f.Add(appendWelcome(nil, &w))
	f.Add(appendWelcome(nil, &welcomeMsg{Head: welcomeHead{World: netsim.DefaultConfig()}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, data, decodeWelcome, appendWelcome)
		if w, err := decodeWelcome(data); err == nil {
			if err := w.Head.validate(); err != nil {
				t.Fatalf("decoded a head no agent can build: %v", err)
			}
			if r := w.Head.Rate; !(r >= 0 && r <= math.MaxFloat64) {
				t.Fatalf("decoded a head with probing rate %v", r)
			}
			if 4*len(w.Targets) > len(data) {
				t.Fatalf("%d targets decoded from %d bytes", len(w.Targets), len(data))
			}
			for kind := range w.Blacklist.Breakdown() {
				if !kind.Greylistable() {
					t.Fatalf("blacklist holds kind %v", kind)
				}
			}
		}
	})
}

// randomUnit is one unit's result over a random width — density, RTT
// magnitudes, statistics and greylist drawn from rng — under a random
// slot.
func randomUnit(rng *rand.Rand) unitRows {
	width := rng.IntN(400)
	row := make([]int32, width)
	density := rng.Float64()
	echo := 0
	for ti := range row {
		row[ti] = census.NoSample
		if rng.Float64() < density {
			row[ti] = int32(rng.IntN(1<<30 + 1))
			if rng.IntN(2) == 0 {
				row[ti] = int32(rng.IntN(300000))
			}
			echo++
		}
	}
	u := unitRows{Slot: rng.IntN(400), ShardRows: census.ShardRows{
		RTTus: row,
		Stats: census.ShardStats{Sent: width, Echo: echo, Timeouts: width - echo, Completion: time.Duration(rng.Int64N(1 << 40))},
	}}
	if rng.IntN(3) == 0 {
		u.Greylist = prober.NewGreylist()
		for k := rng.IntN(5); k > 0; k-- {
			u.Greylist.Add(netsim.IP(rng.Uint32()), netsim.ReplyAdminFiltered+netsim.ReplyKind(rng.IntN(3)))
		}
	}
	return u
}

// widthsOf answers decodeRows with each unit's own width, by slot.
func widthsOf(units []unitRows) func(int) (int, bool) {
	return func(slot int) (int, bool) {
		for _, u := range units {
			if u.Slot == slot {
				return len(u.RTTus), true
			}
		}
		return 0, false
	}
}

// The agent encodes a rows frame in place, a unit at a time: over random
// batches of random units the frame's length is its own, its payload
// decodes back to the units at their widths, and the decoded units
// re-encode to the same bytes. Into a buffer with room, a unit with an
// empty greylist encodes without allocating.
func TestRowsFrameInPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	var buf []byte
	for i := 0; i < 500; i++ {
		units := make([]unitRows, 1+rng.IntN(4))
		for k := range units {
			units[k] = randomUnit(rng)
			units[k].Slot = 400*k + units[k].Slot // distinct, as in a lease
		}
		id := rng.Uint64() >> rng.IntN(64)
		buf = appendRowsFrame(buf[:0], id, units...)
		if n := binary.BigEndian.Uint32(buf); int(n) != len(buf)-4 || buf[4] != frameRows {
			t.Fatalf("batch %d: frame header %x for %d bytes", i, buf[:5], len(buf))
		}
		gotID, got, err := decodeRows(buf[5:], widthsOf(units))
		if err != nil || gotID != id || len(got) != len(units) {
			t.Fatalf("batch %d: decoded lease %d, %d units, %v", i, gotID, len(got), err)
		}
		for k, u := range got {
			want := units[k]
			if u.Slot != want.Slot || u.Stats != want.Stats || !slices.Equal(u.RTTus, want.RTTus) ||
				!reflect.DeepEqual(u.Greylist.Snapshot(), want.Greylist.Snapshot()) {
				t.Fatalf("batch %d unit %d does not round-trip", i, k)
			}
		}
		if again := appendRowsFrame(nil, gotID, got...); !bytes.Equal(again, buf) {
			t.Fatalf("batch %d: decoded units re-encode differently", i)
		}
	}
	u := randomUnit(rng)
	u.Greylist = nil
	buf = make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(50, func() { buf = appendRowsUnit(buf[:0], u.Slot, &u.ShardRows) }); n != 0 {
		t.Fatalf("appendRowsUnit into a buffer with room allocates %v times", n)
	}
}

// hostileRows are rows payloads no agent writes, read at width 4: each
// must be refused without a panic and without allocating by its own
// claim.
var hostileRows = map[string][]byte{
	"lease id only":         {1},
	"overlong lease id":     {0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"slot beyond int32":     {1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"sent beyond int32":     {1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"giant greylist count":  {1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0},
	"giant sample count":    {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f},
	"unknown row mode":      {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0},
	"row past the width":    {1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 5, 9},
	"truncated stats":       {1, 0, 0, 0, 0},
	"second unit truncated": {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
}

// Every truncation of a valid rows payload but the one between its units
// is refused, a corruption of any
// byte never panics, and the hostile payloads are refused.
func TestDecodeRowsHostile(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	units := []unitRows{randomUnit(rng), randomUnit(rng)}
	units[1].Slot = units[0].Slot + 1
	units[0].Greylist = prober.NewGreylist()
	units[0].Greylist.Add(netsim.IP(77), netsim.ReplyAdminFiltered)
	payload := appendRowsFrame(nil, 3, units...)[5:]
	widths := widthsOf(units)
	if _, _, err := decodeRows(payload, widths); err != nil {
		t.Fatal(err)
	}
	first := len(appendRowsFrame(nil, 3, units[0])) - 5
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeRows(payload[:cut], widths); err == nil && cut != first {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range payload {
		mut := bytes.Clone(payload)
		mut[i] ^= 0xff
		decodeRows(mut, widths) // must not panic; error or success both fine
	}
	for name, p := range hostileRows {
		if _, _, err := decodeRows(p, func(int) (int, bool) { return 4, true }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeRows reads arbitrary rows payloads at an arbitrary width, as
// the coordinator reads a frame for a lease it issued: no input may
// panic the decoder, and every accepted payload re-encodes byte for byte.
func FuzzDecodeRows(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 3; i++ {
		u := randomUnit(rng)
		p := appendRowsFrame(nil, uint64(i), u, unitRows{Slot: u.Slot + 1, ShardRows: u.ShardRows})[5:]
		f.Add(p, uint16(len(u.RTTus)))
		f.Add(p[:len(p)/2], uint16(len(u.RTTus)))
	}
	f.Add([]byte{}, uint16(0))
	for _, name := range []string{"giant sample count", "giant greylist count", "row past the width", "overlong lease id"} {
		f.Add(hostileRows[name], uint16(4))
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint16) {
		id, units, err := decodeRows(data, func(int) (int, bool) { return int(width), true })
		if err != nil {
			return
		}
		for _, u := range units {
			if len(u.RTTus) != int(width) {
				t.Fatalf("accepted a %d-cell row at width %d", len(u.RTTus), width)
			}
		}
		if again := appendRowsFrame(nil, id, units...)[5:]; !bytes.Equal(again, data) {
			t.Fatalf("accepted payload %x re-encodes as %x", data, again)
		}
	})
}
