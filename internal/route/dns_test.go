package route

import (
	"bytes"
	"testing"

	"anycastmap/internal/netsim"
)

var testZone = func() []byte {
	z, err := EncodeName(nil, DefaultZone)
	if err != nil {
		panic(err)
	}
	return z
}()

func buildQuery(t testing.TB, service netsim.Prefix24, policy Policy, qtype uint16, client netsim.Prefix24) []byte {
	t.Helper()
	return AppendQuery(nil, 0x1234, service, policy, testZone, qtype, client)
}

func TestDecodeQueryRoundtrip(t *testing.T) {
	sc := &Scratch{}
	pkt := buildQuery(t, svcPrefix, PolicyNearestReplica, qtypeTXT, netsim.Prefix24(0x0b2233))
	rcode, ok := DecodeQuery(sc, pkt, testZone)
	if !ok || rcode != RcodeNoError {
		t.Fatalf("decode: rcode=%d ok=%v", rcode, ok)
	}
	q := &sc.q
	if q.ID != 0x1234 || !q.RD || q.QType != qtypeTXT {
		t.Fatalf("header fields: %+v", q)
	}
	if q.Service != svcPrefix {
		t.Fatalf("service = %v, want %v", q.Service, svcPrefix)
	}
	if q.Policy != PolicyNearestReplica {
		t.Fatalf("policy = %v", q.Policy)
	}
	if !q.EDNS || !q.HasECS || q.ECS != netsim.Prefix24(0x0b2233) || q.ECSSource != 24 {
		t.Fatalf("ECS: %+v", q)
	}

	// Without a policy label: three labels, default chain.
	pkt = buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b2233))
	if rcode, ok = DecodeQuery(sc, pkt, testZone); !ok || rcode != RcodeNoError {
		t.Fatalf("3-label decode: rcode=%d ok=%v", rcode, ok)
	}
	if sc.q.Policy != PolicyNone || sc.q.Service != svcPrefix {
		t.Fatalf("3-label query: %+v", sc.q)
	}
}

func TestDecodeQueryCaseInsensitiveZone(t *testing.T) {
	sc := &Scratch{}
	pkt := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b2233))
	// Fold the zone letters byte-wise (bytes.ToUpper is UTF-8 aware and
	// would mangle the binary OPT section).
	upper := append([]byte(nil), pkt...)
	for i, c := range upper {
		if 'a' <= c && c <= 'z' {
			upper[i] = c - ('a' - 'A')
		}
	}
	if rcode, ok := DecodeQuery(sc, upper, testZone); !ok || rcode != RcodeNoError {
		t.Fatalf("uppercase zone: rcode=%d ok=%v", rcode, ok)
	}
}

func TestDecodeQueryErrors(t *testing.T) {
	base := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b2233))
	mut := func(f func(p []byte)) []byte {
		p := append([]byte(nil), base...)
		f(p)
		return p
	}
	outOfZone, err := EncodeName(nil, "10.10.0.example.com.")
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name  string
		pkt   []byte
		rcode int
		drop  bool
	}{
		{"runt", base[:8], 0, true},
		{"response bit", mut(func(p []byte) { p[2] |= 0x80 }), 0, true},
		{"opcode status", mut(func(p []byte) { p[2] |= 0x10 }), RcodeNotImp, false},
		{"two questions", mut(func(p []byte) { p[5] = 2 }), RcodeFormErr, false},
		{"answer in query", mut(func(p []byte) { p[7] = 1 }), RcodeFormErr, false},
		{"chaos class", mut(func(p []byte) { p[len(p)-22-4+3] = 3 }), RcodeRefused, false},
		{"truncated question", base[:headerLen+4], RcodeFormErr, false},
	}
	sc := &Scratch{}
	for _, tc := range tests {
		rcode, ok := DecodeQuery(sc, tc.pkt, testZone)
		if tc.drop {
			if ok {
				t.Errorf("%s: not dropped (rcode %d)", tc.name, rcode)
			}
			continue
		}
		if !ok || rcode != tc.rcode {
			t.Errorf("%s: rcode=%d ok=%v, want %d", tc.name, rcode, ok, tc.rcode)
		}
	}

	// Structured cases that need their own packets.
	hdr := func(qd, an, ns, ar int) []byte {
		p := []byte{0x12, 0x34, 0, 0, 0, byte(qd), 0, byte(an), 0, byte(ns), 0, byte(ar)}
		return p
	}
	// Out-of-zone name.
	p := append(hdr(1, 0, 0, 0), outOfZone...)
	p = append(p, 0, 1, 0, 1)
	if rcode, ok := DecodeQuery(sc, p, testZone); !ok || rcode != RcodeRefused {
		t.Errorf("out of zone: rcode=%d ok=%v", rcode, ok)
	}
	// In-zone but not the service dialect: NXDOMAIN.
	name, _ := EncodeName(nil, "foo.bar."+DefaultZone)
	p = append(hdr(1, 0, 0, 0), name...)
	p = append(p, 0, 1, 0, 1)
	if rcode, ok := DecodeQuery(sc, p, testZone); !ok || rcode != RcodeNXDomain {
		t.Errorf("bad labels: rcode=%d ok=%v", rcode, ok)
	}
	// Octet out of range.
	name, _ = EncodeName(nil, "10.999.0."+DefaultZone)
	p = append(hdr(1, 0, 0, 0), name...)
	p = append(p, 0, 1, 0, 1)
	if rcode, ok := DecodeQuery(sc, p, testZone); !ok || rcode != RcodeNXDomain {
		t.Errorf("bad octet: rcode=%d ok=%v", rcode, ok)
	}
	// Compression pointer loop in the qname must not hang or crash.
	p = append(hdr(1, 0, 0, 0), 0xc0, headerLen) // points at itself
	p = append(p, 0, 1, 0, 1)
	if rcode, ok := DecodeQuery(sc, p, testZone); !ok || rcode != RcodeFormErr {
		t.Errorf("pointer loop: rcode=%d ok=%v", rcode, ok)
	}
}

func TestDecodeQueryECSValidation(t *testing.T) {
	// Build a query and corrupt the ECS option in targeted ways. The
	// option data — family(2) source(1) scope(1) addr(3) — occupies the
	// packet's last 7 bytes (see AppendQuery).
	base := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b2233))
	ecsOff := len(base) - 7
	sc := &Scratch{}

	corrupt := func(f func(p []byte)) (int, bool) {
		p := append([]byte(nil), base...)
		f(p)
		return DecodeQuery(sc, p, testZone)
	}

	if rcode, ok := corrupt(func(p []byte) { p[ecsOff+3] = 8 }); !ok || rcode != RcodeFormErr {
		t.Errorf("nonzero scope: rcode=%d ok=%v", rcode, ok)
	}
	if rcode, ok := corrupt(func(p []byte) { p[ecsOff+2] = 33 }); !ok || rcode != RcodeFormErr {
		t.Errorf("v4 source 33: rcode=%d ok=%v", rcode, ok)
	}
	if rcode, ok := corrupt(func(p []byte) { p[ecsOff+2] = 16 }); !ok || rcode != RcodeFormErr {
		t.Errorf("source/addr length mismatch: rcode=%d ok=%v", rcode, ok)
	}

	// Source 0 with no address bytes is legal "no client info": drop
	// the 3 addr bytes and fix the lengths.
	p := append([]byte(nil), base...)
	p = p[:len(p)-3]
	put16(p[len(p)-10:], 8) // OPT RDLEN: option header 4 + ECS 4
	put16(p[len(p)-6:], 4)  // ECS option length
	p[len(p)-2] = 0         // source 0
	if rcode, ok := DecodeQuery(sc, p, testZone); !ok || rcode != RcodeNoError || sc.q.HasECS {
		t.Errorf("source 0: rcode=%d ok=%v hasECS=%v", rcode, ok, sc.q.HasECS)
	}

	// A /16 source masks the third octet out of the routing key.
	p = append([]byte(nil), base...)
	p = p[:len(p)-1]         // addr shrinks to 2 bytes
	put16(p[len(p)-12:], 10) // OPT RDLEN: option header 4 + ECS 6
	put16(p[len(p)-8:], 6)   // ECS option length
	p[len(p)-4] = 16         // source /16
	if rcode, ok := DecodeQuery(sc, p, testZone); !ok || rcode != RcodeNoError {
		t.Fatalf("/16 source: rcode=%d ok=%v", rcode, ok)
	}
	if !sc.q.HasECS || sc.q.ECS != netsim.Prefix24(0x0b2200) || sc.q.ECSSource != 16 {
		t.Errorf("/16 source: ECS=%v source=%d", sc.q.ECS, sc.q.ECSSource)
	}

	// Well-formed /24 resolves to the client prefix.
	if rcode, ok := DecodeQuery(sc, base, testZone); !ok || rcode != RcodeNoError {
		t.Fatalf("well-formed: rcode=%d ok=%v", rcode, ok)
	}
	if sc.q.ECS != netsim.Prefix24(0x0b2233) || sc.q.ECSSource != 24 {
		t.Errorf("ECS = %v source=%d", sc.q.ECS, sc.q.ECSSource)
	}
}

func TestEncodeAnswerShape(t *testing.T) {
	sc := &Scratch{}
	pkt := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b2233))
	if rcode, ok := DecodeQuery(sc, pkt, testZone); !ok || rcode != RcodeNoError {
		t.Fatalf("decode: %d %v", rcode, ok)
	}
	ans := Answer{
		Client: netsim.Prefix24(0x0b2233), Service: svcPrefix, Version: 7,
		Anycast: true, Replica: 2, Replicas: 3, Addr: svcPrefix.Host(3),
		ViaVP: "vp-ash", City: "Ashburn", CC: "US", Located: true, DistKm: 123,
		ASN: 64500,
	}
	out := EncodeAnswer(sc, &ans, PolicyNearestReplica, 30)

	if len(out) < headerLen {
		t.Fatal("short response")
	}
	if out[0] != 0x12 || out[1] != 0x34 {
		t.Errorf("ID not echoed: % x", out[:2])
	}
	flags := uint16(out[2])<<8 | uint16(out[3])
	if flags&flagQR == 0 || flags&flagAA == 0 || flags&flagRD == 0 || flags&0xf != RcodeNoError {
		t.Errorf("flags = %04x", flags)
	}
	an := int(out[6])<<8 | int(out[7])
	ar := int(out[10])<<8 | int(out[11])
	if an != 1 || ar != 1 {
		t.Errorf("ANCOUNT=%d ARCOUNT=%d", an, ar)
	}
	// The A rdata is the last 4 bytes before the OPT record; locate it
	// from the answer's fixed layout: question + name-pointer(2) +
	// type/class/ttl(8) + rdlen(2) + rdata(4).
	qlen := sc.q.nameLen + 4
	aOff := headerLen + qlen + 2 + 8 + 2
	addr := netsim.IP(uint32(out[aOff])<<24 | uint32(out[aOff+1])<<16 | uint32(out[aOff+2])<<8 | uint32(out[aOff+3]))
	if addr != ans.Addr {
		t.Errorf("A rdata = %v, want %v", addr, ans.Addr)
	}

	// TXT answers describe the decision.
	pkt = buildQuery(t, svcPrefix, PolicyNone, qtypeTXT, netsim.Prefix24(0x0b2233))
	if rcode, ok := DecodeQuery(sc, pkt, testZone); !ok || rcode != RcodeNoError {
		t.Fatalf("decode TXT: %d %v", rcode, ok)
	}
	out = EncodeAnswer(sc, &ans, PolicyNearestReplica, 30)
	if !bytes.Contains(out, []byte("policy=nearest-replica")) ||
		!bytes.Contains(out, []byte("via=vp-ash")) ||
		!bytes.Contains(out, []byte("client=11.34.51.0/24")) {
		t.Errorf("TXT missing fields: %q", out)
	}

	// No-replica answers are NODATA: NOERROR, empty answer section.
	bare := ans
	bare.Replica = -1
	out = EncodeAnswer(sc, &bare, PolicyNone, 30)
	if an := int(out[6])<<8 | int(out[7]); an != 0 {
		t.Errorf("NODATA ANCOUNT = %d", an)
	}
}

func TestEncodeErrorShape(t *testing.T) {
	sc := &Scratch{}
	pkt := buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b2233))
	if rcode, ok := DecodeQuery(sc, pkt, testZone); !ok || rcode != RcodeNoError {
		t.Fatal("decode failed")
	}
	out := EncodeError(sc, RcodeServFail)
	flags := uint16(out[2])<<8 | uint16(out[3])
	if flags&0xf != RcodeServFail {
		t.Errorf("rcode = %d", flags&0xf)
	}
	if qd := int(out[4])<<8 | int(out[5]); qd != 1 {
		t.Errorf("question not echoed: QDCOUNT=%d", qd)
	}
	// A FORMERR before the name parsed echoes nothing.
	DecodeQuery(sc, append(pkt[:headerLen:headerLen], 0xc0, 0x0c), testZone)
	out = EncodeError(sc, RcodeFormErr)
	if qd := int(out[4])<<8 | int(out[5]); qd != 0 {
		t.Errorf("unparsed question echoed: QDCOUNT=%d", qd)
	}
}

// TestScratchReuse decodes packets of decreasing size through one
// scratch and checks no state leaks between packets.
func TestScratchReuse(t *testing.T) {
	sc := &Scratch{}
	withPolicyAndECS := buildQuery(t, svcPrefix, PolicyHealthWeighted, qtypeTXT, netsim.Prefix24(0x0b2233))
	if rcode, ok := DecodeQuery(sc, withPolicyAndECS, testZone); !ok || rcode != RcodeNoError {
		t.Fatal("first decode failed")
	}
	// A minimal query without EDNS must not inherit the first packet's
	// policy, ECS or EDNS flags.
	name, _ := EncodeName(nil, "10.10.1."+DefaultZone)
	p := []byte{0x56, 0x78, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	p = append(p, name...)
	p = append(p, 0, 1, 0, 1)
	if rcode, ok := DecodeQuery(sc, p, testZone); !ok || rcode != RcodeNoError {
		t.Fatalf("second decode: %d %v", rcode, ok)
	}
	q := &sc.q
	if q.Policy != PolicyNone || q.HasECS || q.EDNS || q.Service != svc2Prefix || q.ID != 0x5678 {
		t.Fatalf("scratch leaked state: %+v", q)
	}
}

// decodeQuerySeeds is FuzzDecodeQuery's seed corpus, which
// TestServerSurvivesFuzzFlood also replays through the socket.
func decodeQuerySeeds(t testing.TB) [][]byte {
	return [][]byte{
		buildQuery(t, svcPrefix, PolicyNone, qtypeA, netsim.Prefix24(0x0b2233)),
		buildQuery(t, svcPrefix, PolicyNearestReplica, qtypeTXT, netsim.Prefix24(0x0b2233)),
		buildQuery(t, svc2Prefix, PolicyCatchmentAffine, qtypeA, 0),
		// Hostile seeds: pointer loop, truncated OPT, nested pointers.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 0x0c, 0, 1, 0, 1},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0, 4, 0, 8},
		bytes.Repeat([]byte{0xc0}, 64),
	}
}

// FuzzDecodeQuery hardens the parser against hostile packets: whatever
// the bytes, DecodeQuery must return without panicking, and a query it
// accepts must also encode an answer and an error without panicking.
func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range decodeQuerySeeds(f) {
		f.Add(seed)
	}

	ans := Answer{Anycast: true, Replica: 1, Replicas: 3, Addr: svcPrefix.Host(2),
		ViaVP: "vp-x", City: "Nowhere", CC: "XX", Located: true, DistKm: 1, ASN: 1}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		sc := &Scratch{}
		rcode, ok := DecodeQuery(sc, pkt, testZone)
		if !ok {
			return
		}
		if rcode < 0 || rcode >= numRcodes {
			t.Fatalf("rcode %d out of range", rcode)
		}
		var out []byte
		if rcode == RcodeNoError {
			out = EncodeAnswer(sc, &ans, PolicyNearestReplica, 30)
		} else {
			out = EncodeError(sc, rcode)
		}
		if len(out) < headerLen {
			t.Fatalf("short response: %d bytes", len(out))
		}
		if len(out) > len(sc.resp) {
			t.Fatalf("response %d bytes overflows the scratch", len(out))
		}
		// Responses must never have the query bit clear.
		if out[2]&0x80 == 0 {
			t.Fatal("response without QR bit")
		}
	})
}
