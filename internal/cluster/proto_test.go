package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

func sampleLease() leaseMsg {
	return leaseMsg{
		ID: 1<<40 + 7, Round: 3, Attempt: 2, Slot: 137, Lo: 16384, Hi: 32768,
		VP: platform.VP{
			ID:         -4, // signed on the wire: the codec carries any platform's IDs
			Name:       "planetlab2.cs.example.edu",
			City:       cities.City{Name: "São Paulo", CC: "BR", Loc: geo.Coord{Lat: -23.55, Lon: -46.63}, Population: 12_300_000},
			Loc:        geo.Coord{Lat: -23.61, Lon: -46.7},
			LoadFactor: 1.75,
		},
	}
}

func TestLeaseCodecRoundTrip(t *testing.T) {
	for _, l := range []leaseMsg{sampleLease(), {}, {ID: math.MaxUint64, Round: math.MaxUint64, Attempt: math.MaxInt32, Slot: math.MaxInt32, Lo: math.MaxInt32, Hi: math.MaxInt32}} {
		got, err := decodeLease(appendLease(nil, &l))
		if err != nil || got != l {
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
	for _, f := range []failMsg{{}, {ID: 9, Err: "netsim: VP crashed", Crash: true}, {ID: math.MaxUint64, Err: strings.Repeat("e", 300)}} {
		got, err := decodeFail(appendFail(nil, &f))
		if err != nil || got != f {
			t.Fatalf("round-trip of %+v: %+v, %v", f, got, err)
		}
	}
}

// Everything the decoders index or allocate by comes off the wire, so
// every way a payload can lie is an error — never a panic, an allocation
// sized by the lie, or a value the agent would index a slice with.
func TestLeaseAndFailDecodersRejectMalformed(t *testing.T) {
	l := sampleLease()
	lease := appendLease(nil, &l)
	fail := appendFail(nil, &failMsg{ID: 9, Err: "boom", Crash: true})
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

	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// Attempt, Slot, Lo, Hi beyond int32: each in turn.
	tail := lease[len(uv(l.ID, l.Round, uint64(l.Attempt), uint64(l.Slot), uint64(l.Lo), uint64(l.Hi))):]
	for i := 2; i < 6; i++ {
		head := []uint64{l.ID, l.Round, uint64(l.Attempt), uint64(l.Slot), uint64(l.Lo), uint64(l.Hi)}
		head[i] = math.MaxInt32 + 1
		if _, err := decodeLease(append(uv(head...), tail...)); err == nil {
			t.Fatalf("lease field %d beyond int32 accepted", i)
		}
	}
	// An 11-byte varint overflows uint64.
	overlong := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	if _, err := decodeLease(append(overlong, lease[len(uv(l.ID)):]...)); err == nil {
		t.Fatal("overlong lease ID varint accepted")
	}
	if _, err := decodeFail(append(overlong, fail[len(uv(9)):]...)); err == nil {
		t.Fatal("overlong fail ID varint accepted")
	}
	// A string length beyond the payload must fail before it is believed.
	if _, err := decodeFail(append(uv(9), append([]byte{0}, uv(1<<62)...)...)); err == nil {
		t.Fatal("fail with a 2^62-byte error string accepted")
	}
	huge := append(uv(1, 1, 0, 0, 0, 8, 5, 0), make([]byte, 5*8)...)
	if _, err := decodeLease(append(huge, uv(0, 0, 0)...)); err != nil {
		t.Fatalf("lease with three empty strings: %v", err)
	}
	if _, err := decodeLease(append(huge, uv(math.MaxUint64)...)); err == nil {
		t.Fatal("lease with a 2^64-byte VP name accepted")
	}
	// Unknown flag bits are a newer or a confused peer.
	if _, err := decodeFail(append(uv(9), 2, 0)); err == nil {
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
	f.Add(appendLease(nil, &leaseMsg{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, data, decodeLease, appendLease)
		if l, err := decodeLease(data); err == nil {
			for _, v := range [...]int{l.Attempt, l.Slot, l.Lo, l.Hi} {
				if v < 0 || v > math.MaxInt32 {
					t.Fatalf("decoded an index of %d", v)
				}
			}
		}
	})
}

func FuzzDecodeFail(f *testing.F) {
	f.Add(appendFail(nil, &failMsg{ID: 9, Err: "netsim: VP crashed", Crash: true}))
	f.Add(appendFail(nil, &failMsg{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, data, decodeFail, appendFail)
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, frameLease, []byte("payload")), uint16(1024))
	f.Add(appendFrame(nil, frameHeartbeat), uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameRows}, uint16(64))
	f.Add([]byte{0, 0, 0, 0}, uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		// A small cap, never the 64 MiB default: the fuzzer would spend
		// its time zeroing buffers for lengths the cap exists to refuse.
		max := int(limit) + 1
		typ, payload, err := readFrame(bytes.NewReader(data), max)
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

// An ACMC1 peer sends lease and fail payloads as gob: it must be turned
// away at the magic, in both directions, not parsed as ACMC2.
func TestACMC1PeerRefused(t *testing.T) {
	const old = "ACMC1\n"
	if err := readMagic(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "not speaking the census protocol") {
		t.Fatalf("ACMC1 magic: %v", err)
	}

	// An ACMC2 agent dialling an ACMC1 coordinator gives up with that error.
	coordSide, agentSide := net.Pipe()
	go func() {
		defer coordSide.Close()
		io.ReadFull(coordSide, make([]byte, len(streamMagic))) // the agent's magic
		if _, _, err := readFrame(coordSide, 0); err != nil {  // its hello
			return
		}
		coordSide.Write([]byte(old))
	}()
	err := RunAgent(context.Background(), agentSide, AgentConfig{Name: "new"})
	if err == nil || !strings.Contains(err.Error(), "not speaking the census protocol") {
		t.Fatalf("agent against an ACMC1 coordinator: %v", err)
	}

	// An ACMC1 agent dialling an ACMC2 coordinator is dropped before its
	// hello is read: it never registers and never sees a welcome.
	_, _, h, _ := clusterTestbed(t)
	coord, err := NewCoordinator(Config{
		Campaign: census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()}),
		Targets:  h.Targets(),
		Census:   testCensusCfg(),
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
	hello, _ := encodeMsg(&helloMsg{Name: "old", Capacity: 1})
	go agentSide.Write(append([]byte(old), appendFrame(nil, frameHello, hello)...))
	got, err := io.ReadAll(agentSide)
	if err != nil && err != io.ErrClosedPipe {
		t.Fatalf("reading the coordinator's answer: %v", err)
	}
	if len(got) > len(streamMagic) {
		t.Fatalf("coordinator answered an ACMC1 peer with %d bytes past its magic", len(got)-len(streamMagic))
	}
	if joined := coord.Stats().AgentsJoined; joined != 0 {
		t.Fatalf("ACMC1 peer registered (%d joined)", joined)
	}
}
