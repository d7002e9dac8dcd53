// Package wire is the DNS message subset (RFC 1035) the CHAOS enumeration
// baseline of Fan et al. exchanges: class-CH TXT queries for
// hostname.bind and the responses that name the answering replica.
package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DNS classes and types used by the census and by the CHAOS enumeration
// baseline of Fan et al. (paper reference [25]): a TXT query for
// "hostname.bind" in class CH returns a per-replica server identifier.
const (
	DNSClassIN = 1
	DNSClassCH = 3

	DNSTypeA   = 1
	DNSTypeTXT = 16
)

// HostnameBind is the CHAOS-class name whose TXT record discloses the
// identity of the answering DNS server instance.
const HostnameBind = "hostname.bind"

// DNSQuestion is one query.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSAnswer is one (simplified) answer record; only TXT payloads are
// modelled.
type DNSAnswer struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	TXT   string
}

// DNSMessage is the subset of RFC 1035 the tooling needs: a header, one
// question and optional TXT answers, without compression.
type DNSMessage struct {
	ID        uint16
	Response  bool
	Questions []DNSQuestion
	Answers   []DNSAnswer
}

// Marshal serializes the message (no name compression).
func (m *DNSMessage) Marshal() ([]byte, error) {
	b := make([]byte, 12)
	binary.BigEndian.PutUint16(b[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	binary.BigEndian.PutUint16(b[2:4], flags)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(b[6:8], uint16(len(m.Answers)))
	for _, q := range m.Questions {
		name, err := marshalName(q.Name)
		if err != nil {
			return nil, err
		}
		b = append(b, name...)
		b = binary.BigEndian.AppendUint16(b, q.Type)
		b = binary.BigEndian.AppendUint16(b, q.Class)
	}
	for _, a := range m.Answers {
		name, err := marshalName(a.Name)
		if err != nil {
			return nil, err
		}
		if len(a.TXT) > 255 {
			return nil, fmt.Errorf("wire: TXT string too long (%d bytes)", len(a.TXT))
		}
		b = append(b, name...)
		b = binary.BigEndian.AppendUint16(b, a.Type)
		b = binary.BigEndian.AppendUint16(b, a.Class)
		b = binary.BigEndian.AppendUint32(b, a.TTL)
		b = binary.BigEndian.AppendUint16(b, uint16(1+len(a.TXT)))
		b = append(b, byte(len(a.TXT)))
		b = append(b, a.TXT...)
	}
	return b, nil
}

// ParseDNS decodes a message produced by Marshal (no compression support).
func ParseDNS(b []byte) (DNSMessage, error) {
	if len(b) < 12 {
		return DNSMessage{}, fmt.Errorf("wire: DNS message truncated at %d bytes", len(b))
	}
	m := DNSMessage{
		ID:       binary.BigEndian.Uint16(b[0:2]),
		Response: binary.BigEndian.Uint16(b[2:4])&(1<<15) != 0,
	}
	qd := int(binary.BigEndian.Uint16(b[4:6]))
	an := int(binary.BigEndian.Uint16(b[6:8]))
	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := parseName(b, off)
		if err != nil {
			return DNSMessage{}, err
		}
		off += n
		if off+4 > len(b) {
			return DNSMessage{}, fmt.Errorf("wire: DNS question truncated")
		}
		m.Questions = append(m.Questions, DNSQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[off : off+2]),
			Class: binary.BigEndian.Uint16(b[off+2 : off+4]),
		})
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := parseName(b, off)
		if err != nil {
			return DNSMessage{}, err
		}
		off += n
		if off+10 > len(b) {
			return DNSMessage{}, fmt.Errorf("wire: DNS answer truncated")
		}
		a := DNSAnswer{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[off : off+2]),
			Class: binary.BigEndian.Uint16(b[off+2 : off+4]),
			TTL:   binary.BigEndian.Uint32(b[off+4 : off+8]),
		}
		rdlen := int(binary.BigEndian.Uint16(b[off+8 : off+10]))
		off += 10
		if off+rdlen > len(b) {
			return DNSMessage{}, fmt.Errorf("wire: DNS rdata truncated")
		}
		if a.Type == DNSTypeTXT && rdlen > 0 {
			txtLen := int(b[off])
			if 1+txtLen > rdlen {
				return DNSMessage{}, fmt.Errorf("wire: TXT length %d exceeds rdata %d", txtLen, rdlen)
			}
			a.TXT = string(b[off+1 : off+1+txtLen])
		}
		off += rdlen
		m.Answers = append(m.Answers, a)
	}
	return m, nil
}

// marshalName encodes a dotted name as length-prefixed labels.
func marshalName(name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	var b []byte
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if label == "" {
				return nil, fmt.Errorf("wire: empty label in %q", name)
			}
			if len(label) > 63 {
				return nil, fmt.Errorf("wire: label %q too long", label)
			}
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	b = append(b, 0)
	if len(b) > 255 {
		return nil, fmt.Errorf("wire: name %q too long", name)
	}
	return b, nil
}

// parseName decodes a label sequence starting at off, returning the dotted
// name and the number of bytes consumed.
func parseName(b []byte, off int) (string, int, error) {
	var labels []string
	n := 0
	for {
		if off+n >= len(b) {
			return "", 0, fmt.Errorf("wire: DNS name truncated")
		}
		l := int(b[off+n])
		n++
		if l == 0 {
			break
		}
		if l > 63 {
			return "", 0, fmt.Errorf("wire: label length %d (compression unsupported)", l)
		}
		if off+n+l > len(b) {
			return "", 0, fmt.Errorf("wire: DNS label truncated")
		}
		labels = append(labels, string(b[off+n:off+n+l]))
		n += l
	}
	return strings.Join(labels, "."), n, nil
}

// BuildCHAOSQuery builds the hostname.bind TXT/CH query datagram of the
// CHAOS enumeration baseline.
func BuildCHAOSQuery(id uint16) ([]byte, error) {
	m := &DNSMessage{
		ID:        id,
		Questions: []DNSQuestion{{Name: HostnameBind, Type: DNSTypeTXT, Class: DNSClassCH}},
	}
	return m.Marshal()
}

// BuildCHAOSResponse builds the reply disclosing the server identity.
func BuildCHAOSResponse(id uint16, serverID string) ([]byte, error) {
	m := &DNSMessage{
		ID:       id,
		Response: true,
		Questions: []DNSQuestion{
			{Name: HostnameBind, Type: DNSTypeTXT, Class: DNSClassCH},
		},
		Answers: []DNSAnswer{
			{Name: HostnameBind, Type: DNSTypeTXT, Class: DNSClassCH, TTL: 0, TXT: serverID},
		},
	}
	return m.Marshal()
}
