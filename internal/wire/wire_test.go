package wire

import (
	"math/rand"
	"testing"
)

func TestDNSRoundTrip(t *testing.T) {
	m := &DNSMessage{
		ID: 0xABCD,
		Questions: []DNSQuestion{
			{Name: "example.org", Type: DNSTypeA, Class: DNSClassIN},
		},
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDNS(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xABCD || got.Response || len(got.Questions) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	q := got.Questions[0]
	if q.Name != "example.org" || q.Type != DNSTypeA || q.Class != DNSClassIN {
		t.Errorf("question round trip: %+v", q)
	}
}

func TestCHAOSFlow(t *testing.T) {
	q, err := BuildCHAOSQuery(42)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := ParseDNS(q)
	if err != nil {
		t.Fatal(err)
	}
	if qm.Questions[0].Name != HostnameBind || qm.Questions[0].Class != DNSClassCH {
		t.Fatalf("CHAOS query wrong: %+v", qm.Questions[0])
	}
	r, err := BuildCHAOSResponse(42, "ams01.l.root-servers.org")
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ParseDNS(r)
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Response || rm.ID != 42 {
		t.Error("response flags wrong")
	}
	if len(rm.Answers) != 1 || rm.Answers[0].TXT != "ams01.l.root-servers.org" {
		t.Fatalf("TXT round trip: %+v", rm.Answers)
	}
}

func TestDNSNameValidation(t *testing.T) {
	long := make([]byte, 64)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"a..b", string(long) + ".org"} {
		m := &DNSMessage{Questions: []DNSQuestion{{Name: bad, Type: 1, Class: 1}}}
		if _, err := m.Marshal(); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	// Root name is fine.
	m := &DNSMessage{Questions: []DNSQuestion{{Name: ".", Type: 1, Class: 1}}}
	if _, err := m.Marshal(); err != nil {
		t.Errorf("root name rejected: %v", err)
	}
}

func TestDNSTruncationRejected(t *testing.T) {
	r, _ := BuildCHAOSResponse(1, "id-1")
	for cut := 1; cut < len(r); cut += 3 {
		if _, err := ParseDNS(r[:cut]); err == nil && cut < len(r) {
			// Some prefixes happen to parse as a shorter valid message
			// only if counts allow; with one question+answer they cannot.
			t.Errorf("truncated DNS message of %d bytes accepted", cut)
		}
	}
}

func TestDNSPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	letters := "abcdefghijklmnopqrstuvwxyz0123456789-"
	randLabel := func() string {
		n := 1 + r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return string(b)
	}
	for trial := 0; trial < 200; trial++ {
		name := randLabel()
		for i := 0; i < r.Intn(4); i++ {
			name += "." + randLabel()
		}
		m := &DNSMessage{
			ID:        uint16(r.Uint32()),
			Response:  r.Intn(2) == 0,
			Questions: []DNSQuestion{{Name: name, Type: uint16(r.Intn(300)), Class: uint16(1 + r.Intn(4))}},
		}
		if r.Intn(2) == 0 {
			m.Answers = append(m.Answers, DNSAnswer{
				Name: name, Type: DNSTypeTXT, Class: DNSClassCH,
				TTL: r.Uint32(), TXT: randLabel(),
			})
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("marshal %q: %v", name, err)
		}
		got, err := ParseDNS(b)
		if err != nil {
			t.Fatalf("parse %q: %v", name, err)
		}
		if got.ID != m.ID || got.Response != m.Response || got.Questions[0] != m.Questions[0] {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
		}
		if len(m.Answers) != len(got.Answers) {
			t.Fatal("answer count mismatch")
		}
		if len(m.Answers) == 1 && got.Answers[0].TXT != m.Answers[0].TXT {
			t.Fatal("TXT mismatch")
		}
	}
}
