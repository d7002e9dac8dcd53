package route

import (
	"fmt"
	"strconv"

	"anycastmap/internal/netsim"
)

// dns.go — a hand-rolled RFC 1035 wire codec for the front-end's narrow
// dialect. The full generality of a DNS library (every RRtype, name
// compression on output, zone transfers) buys nothing here and costs
// allocations; this codec decodes a query and encodes its answer
// entirely inside one worker-owned Scratch, so the packet path touches
// the heap zero times.
//
// Query dialect — the qname names the service, the client rides in an
// EDNS Client Subnet option (RFC 7871) or falls back to the UDP source:
//
//	<a>.<b>.<c>.<zone>            route a.b.c.0/24 under the default chain
//	<policy>.<a>.<b>.<c>.<zone>   same, preferring the named policy
//
// A answers carry the chosen replica's synthesized service address;
// TXT answers describe the decision (policy, via-VP, replica index,
// distance, snapshot version). Malformed packets answer FORMERR or are
// dropped; FuzzDecodeQuery pins "never panic".

// DefaultZone is the suffix the front-end answers for.
const DefaultZone = "route.anycastmap."

// DNS constants (RFC 1035, 2671, 7871).
const (
	RcodeNoError  = 0
	RcodeFormErr  = 1
	RcodeServFail = 2
	RcodeNXDomain = 3
	RcodeNotImp   = 4
	RcodeRefused  = 5

	numRcodes = 6

	qtypeA   = 1
	qtypeTXT = 16
	qtypeOPT = 41
	classIN  = 1

	headerLen  = 12
	maxNameLen = 255
	// maxJumps bounds compression-pointer chasing: a legal name has at
	// most 127 labels, so a longer chain is hostile.
	maxJumps = 127
	// ednsUDPSize is the receive buffer size the server advertises.
	ednsUDPSize = 1232
	// optCodeECS is the EDNS Client Subnet option code.
	optCodeECS = 8

	flagQR = 0x8000
	flagAA = 0x0400
	flagTC = 0x0200
	flagRD = 0x0100
)

// Query is one decoded request, valid until the owning Scratch decodes
// the next packet.
type Query struct {
	ID    uint16
	RD    bool
	QType uint16
	// Service is the deployment prefix the qname names.
	Service netsim.Prefix24
	// Policy is the preferred policy named by the qname's extra label
	// (PolicyNone when absent).
	Policy Policy
	// HasECS/ECS carry the client prefix from a v4 EDNS Client Subnet
	// option with a non-zero source length. ECSSource echoes the
	// request's source prefix length into the response.
	HasECS    bool
	ECS       netsim.Prefix24
	ECSSource uint8
	// EDNS records whether the request carried an OPT record (the
	// response then echoes one).
	EDNS bool
	// nameLen is the decompressed qname's length inside Scratch.name;
	// 0 means the name never parsed (error responses echo no question).
	nameLen int
	qclass  uint16
}

// Scratch is one worker's reusable packet state: the decoded query, the
// decompressed qname, the TXT assembly buffer and the response buffer.
// A Scratch is not safe for concurrent use; each listener goroutine
// (and each loadgen worker) owns one.
type Scratch struct {
	q    Query
	name [maxNameLen + 1]byte
	txt  [320]byte
	resp [1024]byte
	// dcache memoizes routing decisions per worker; see cache.go.
	dcache [decideCacheSize]decideCacheEntry
}

// Question returns the decompressed qname in wire format (valid until
// the next decode).
func (sc *Scratch) Question() []byte { return sc.name[:sc.q.nameLen] }

// EncodeName converts a dotted domain name into wire-format labels
// appended to dst. The empty name and "." encode as the root.
func EncodeName(dst []byte, name string) ([]byte, error) {
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			l := i - start
			if l > 63 {
				return nil, fmt.Errorf("route: label %q exceeds 63 bytes", name[start:i])
			}
			if l > 0 {
				dst = append(dst, byte(l))
				dst = append(dst, name[start:i]...)
			}
			start = i + 1
		}
	}
	dst = append(dst, 0)
	if len(dst) > maxNameLen {
		return nil, fmt.Errorf("route: name %q exceeds %d bytes", name, maxNameLen)
	}
	return dst, nil
}

// walkName decompresses the name at off in pkt into out, returning the
// written length and the offset just past the name's in-place bytes
// (the position after the first pointer, when one was followed). It
// rejects pointer loops, out-of-bounds jumps and names over 255 bytes.
func walkName(pkt []byte, off int, out *[maxNameLen + 1]byte) (n, next int, ok bool) {
	next = -1
	jumps := 0
	for {
		if off >= len(pkt) {
			return 0, 0, false
		}
		b := int(pkt[off])
		switch {
		case b == 0:
			if n+1 > maxNameLen {
				return 0, 0, false
			}
			out[n] = 0
			n++
			if next < 0 {
				next = off + 1
			}
			return n, next, true
		case b < 64: // plain label
			if off+1+b > len(pkt) || n+1+b > maxNameLen {
				return 0, 0, false
			}
			out[n] = byte(b)
			copy(out[n+1:], pkt[off+1:off+1+b])
			n += 1 + b
			off += 1 + b
		case b >= 192: // compression pointer
			if off+1 >= len(pkt) {
				return 0, 0, false
			}
			if next < 0 {
				next = off + 2
			}
			jumps++
			if jumps > maxJumps {
				return 0, 0, false
			}
			off = (b&0x3f)<<8 | int(pkt[off+1])
		default: // 0x40/0x80 label types were never standardized
			return 0, 0, false
		}
	}
}

// equalFoldWire compares two wire-format names case-insensitively
// (ASCII letters only, per RFC 1035 §2.3.3).
func equalFoldWire(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// DecodeQuery parses one request packet into sc.q against the given
// wire-format zone. ok=false means drop the packet silently (not a
// query, or too short to answer); otherwise rcode is RcodeNoError for a
// routable question or the error rcode to answer with.
func DecodeQuery(sc *Scratch, pkt []byte, zone []byte) (rcode int, ok bool) {
	sc.q = Query{}
	if len(pkt) < headerLen {
		return 0, false
	}
	sc.q.ID = uint16(pkt[0])<<8 | uint16(pkt[1])
	flags := uint16(pkt[2])<<8 | uint16(pkt[3])
	if flags&flagQR != 0 {
		return 0, false // a response: never answer one, or two servers loop
	}
	sc.q.RD = flags&flagRD != 0
	if opcode := (flags >> 11) & 0xf; opcode != 0 {
		return RcodeNotImp, true
	}
	qd := int(pkt[4])<<8 | int(pkt[5])
	an := int(pkt[6])<<8 | int(pkt[7])
	ns := int(pkt[8])<<8 | int(pkt[9])
	ar := int(pkt[10])<<8 | int(pkt[11])
	if qd != 1 || an != 0 || ns != 0 || ar > 1 {
		return RcodeFormErr, true
	}

	n, off, okName := walkName(pkt, headerLen, &sc.name)
	if !okName {
		return RcodeFormErr, true
	}
	sc.q.nameLen = n
	if off+4 > len(pkt) {
		sc.q.nameLen = 0
		return RcodeFormErr, true
	}
	sc.q.QType = uint16(pkt[off])<<8 | uint16(pkt[off+1])
	sc.q.qclass = uint16(pkt[off+2])<<8 | uint16(pkt[off+3])
	off += 4

	if ar == 1 {
		r, newOff := parseAdditional(sc, pkt, off)
		if r != RcodeNoError {
			return r, true
		}
		off = newOff
	}
	if sc.q.qclass != classIN {
		return RcodeRefused, true
	}

	// Zone check: the qname must end in the zone, label-aligned.
	qname := sc.name[:sc.q.nameLen]
	if len(zone) > len(qname) || !equalFoldWire(qname[len(qname)-len(zone):], zone) {
		return RcodeRefused, true
	}
	// Walk the leading labels and check the suffix starts on a label
	// boundary; collect up to 5 (a 5th means NXDOMAIN, not corruption).
	var labels [5][]byte
	nLabels := 0
	p := 0
	for qname[p] != 0 && p != len(qname)-len(zone) {
		l := int(qname[p])
		if nLabels == len(labels) {
			return RcodeNXDomain, true
		}
		labels[nLabels] = qname[p+1 : p+1+l]
		nLabels++
		p += 1 + l
	}
	if p != len(qname)-len(zone) {
		return RcodeRefused, true // suffix match fell inside a label
	}

	// [policy.]a.b.c — three numeric labels, one optional policy label.
	first := 0
	if nLabels == 4 {
		pol, okPol := parsePolicyLabel(labels[0])
		if !okPol {
			return RcodeNXDomain, true
		}
		sc.q.Policy = pol
		first = 1
	} else if nLabels != 3 {
		return RcodeNXDomain, true
	}
	var svc uint32
	for i := first; i < nLabels; i++ {
		v, okOct := parseOctet(labels[i])
		if !okOct {
			return RcodeNXDomain, true
		}
		svc = svc<<8 | uint32(v)
	}
	sc.q.Service = netsim.Prefix24(svc)
	return RcodeNoError, true
}

// parseAdditional parses the single additional record. Only a
// well-formed OPT is meaningful; anything else is FORMERR.
func parseAdditional(sc *Scratch, pkt []byte, off int) (rcode, next int) {
	// OPT owner name must be root; tolerate any legal name for non-OPT.
	var scratch [maxNameLen + 1]byte
	nameN, off, ok := walkName(pkt, off, &scratch)
	if !ok || off+10 > len(pkt) {
		return RcodeFormErr, 0
	}
	rtype := uint16(pkt[off])<<8 | uint16(pkt[off+1])
	ttl := uint32(pkt[off+4])<<24 | uint32(pkt[off+5])<<16 | uint32(pkt[off+6])<<8 | uint32(pkt[off+7])
	rdlen := int(pkt[off+8])<<8 | int(pkt[off+9])
	off += 10
	if off+rdlen > len(pkt) {
		return RcodeFormErr, 0
	}
	if rtype != qtypeOPT {
		return RcodeFormErr, 0 // a query with TSIG/other additionals is out of dialect
	}
	if nameN != 1 { // OPT owner must be the root name
		return RcodeFormErr, 0
	}
	if version := byte(ttl >> 16); version != 0 {
		return RcodeFormErr, 0
	}
	sc.q.EDNS = true

	// Options: {code u16, len u16, data}.
	opt := pkt[off : off+rdlen]
	sawECS := false
	for len(opt) > 0 {
		if len(opt) < 4 {
			return RcodeFormErr, 0
		}
		code := uint16(opt[0])<<8 | uint16(opt[1])
		olen := int(opt[2])<<8 | int(opt[3])
		opt = opt[4:]
		if olen > len(opt) {
			return RcodeFormErr, 0
		}
		if code == optCodeECS {
			if sawECS {
				return RcodeFormErr, 0
			}
			sawECS = true
			if r := parseECS(sc, opt[:olen]); r != RcodeNoError {
				return r, 0
			}
		}
		opt = opt[olen:]
	}
	return RcodeNoError, off + rdlen
}

// parseECS validates one EDNS Client Subnet option (RFC 7871 §6).
func parseECS(sc *Scratch, o []byte) int {
	if len(o) < 4 {
		return RcodeFormErr
	}
	family := uint16(o[0])<<8 | uint16(o[1])
	source, scope := o[2], o[3]
	if scope != 0 { // queries must send scope 0
		return RcodeFormErr
	}
	addr := o[4:]
	if len(addr) != (int(source)+7)/8 {
		return RcodeFormErr
	}
	if family != 1 {
		if family == 2 && source <= 128 {
			return RcodeNoError // v6 clients fall back to the UDP source
		}
		return RcodeFormErr
	}
	if source > 32 {
		return RcodeFormErr
	}
	if source == 0 {
		return RcodeNoError // explicit "no client info"
	}
	var b [4]byte
	copy(b[:], addr)
	// Mask to the source length: trailing bits must not leak into the
	// routing key.
	ip := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if source < 32 {
		ip &= ^uint32(0) << (32 - source)
	}
	sc.q.HasECS = true
	sc.q.ECS = netsim.IP(ip).Prefix()
	sc.q.ECSSource = source
	return RcodeNoError
}

func parseOctet(l []byte) (byte, bool) {
	if len(l) == 0 || len(l) > 3 {
		return 0, false
	}
	v := 0
	for _, c := range l {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if v > 255 || (len(l) > 1 && l[0] == '0') {
		return 0, false
	}
	return byte(v), true
}

// parsePolicyLabel matches a label against the policy wire names
// case-insensitively, without allocating.
func parsePolicyLabel(l []byte) (Policy, bool) {
	for p := PolicyCatchmentAffine; p < numPolicies; p++ {
		name := p.String()
		if len(l) != len(name) {
			continue
		}
		match := true
		for i := 0; i < len(l); i++ {
			c := l[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[i] {
				match = false
				break
			}
		}
		if match {
			return p, true
		}
	}
	return PolicyNone, false
}

func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }

// appendHeader writes the 12-byte response header.
func appendHeader(dst []byte, q *Query, rcode, qd, an, ar int) []byte {
	flags := uint16(flagQR | flagAA | uint16(rcode&0xf))
	if q.RD {
		flags |= flagRD
	}
	var h [headerLen]byte
	put16(h[0:], q.ID)
	put16(h[2:], flags)
	put16(h[4:], uint16(qd))
	put16(h[6:], uint16(an))
	put16(h[10:], uint16(ar))
	return append(dst, h[:]...)
}

// appendOPT writes the response OPT record, echoing the request's ECS
// option (scope /24 — the answer's granularity) when one was used.
func appendOPT(dst []byte, q *Query) []byte {
	dst = append(dst, 0) // root owner
	var fixed [10]byte
	put16(fixed[0:], qtypeOPT)
	put16(fixed[2:], ednsUDPSize)
	// TTL bytes 4..8 (ext-rcode, version, flags) all zero.
	rdlen := 0
	if q.HasECS {
		rdlen = 4 + 4 + (int(q.ECSSource)+7)/8
	}
	put16(fixed[8:], uint16(rdlen))
	dst = append(dst, fixed[:]...)
	if q.HasECS {
		n := (int(q.ECSSource) + 7) / 8
		var ecs [12]byte
		put16(ecs[0:], optCodeECS)
		put16(ecs[2:], uint16(4+n))
		put16(ecs[4:], 1) // family v4
		ecs[6] = q.ECSSource
		ecs[7] = 24 // scope: decisions are /24-granular
		ip := uint32(q.ECS) << 8
		ecs[8], ecs[9], ecs[10], ecs[11] = byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)
		dst = append(dst, ecs[:8+n]...)
	}
	return dst
}

// EncodeError builds an error response (FORMERR, NOTIMP, REFUSED,
// SERVFAIL, NXDOMAIN) into the scratch, echoing the question when it
// parsed.
func EncodeError(sc *Scratch, rcode int) []byte {
	q := &sc.q
	qd := 0
	if q.nameLen > 0 {
		qd = 1
	}
	ar := 0
	if q.EDNS {
		ar = 1
	}
	out := appendHeader(sc.resp[:0], q, rcode, qd, 0, ar)
	if qd == 1 {
		out = append(out, sc.name[:q.nameLen]...)
		var qt [4]byte
		put16(qt[0:], q.QType)
		put16(qt[2:], q.qclass)
		out = append(out, qt[:]...)
	}
	if ar == 1 {
		out = appendOPT(out, q)
	}
	return out
}

// EncodeAnswer builds the success response for the decoded query in sc:
// an A record with the replica address, or a TXT record describing the
// decision. A nil-replica answer (anycast entry with no instances)
// encodes NOERROR with an empty answer section; qtypes other than A and
// TXT get the same NODATA shape.
func EncodeAnswer(sc *Scratch, ans *Answer, policy Policy, ttl uint32) []byte {
	q := &sc.q
	withAnswer := ans.Replica >= 0 && (q.QType == qtypeA || q.QType == qtypeTXT)
	an := 0
	if withAnswer {
		an = 1
	}
	ar := 0
	if q.EDNS {
		ar = 1
	}
	out := appendHeader(sc.resp[:0], q, RcodeNoError, 1, an, ar)
	out = append(out, sc.name[:q.nameLen]...)
	var qt [4]byte
	put16(qt[0:], q.QType)
	put16(qt[2:], q.qclass)
	out = append(out, qt[:]...)

	if withAnswer {
		// Owner: pointer to the question name at offset 12.
		out = append(out, 0xc0, headerLen)
		var fixed [8]byte
		put16(fixed[0:], q.QType)
		put16(fixed[2:], classIN)
		fixed[4] = byte(ttl >> 24)
		fixed[5] = byte(ttl >> 16)
		fixed[6] = byte(ttl >> 8)
		fixed[7] = byte(ttl)
		out = append(out, fixed[:]...)
		if q.QType == qtypeA {
			ip := uint32(ans.Addr)
			out = append(out, 0, 4, byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
		} else {
			txt := appendTXT(sc.txt[:0], ans, policy)
			if len(txt) > 255 {
				txt = txt[:255]
			}
			var rdlen [2]byte
			put16(rdlen[0:], uint16(len(txt)+1))
			out = append(out, rdlen[:]...)
			out = append(out, byte(len(txt)))
			out = append(out, txt...)
		}
	}
	if ar == 1 {
		out = appendOPT(out, q)
	}
	return out
}

// appendTXT renders the decision description, e.g.
//
//	policy=nearest-replica via=vp-ams-1 replica=2/7 asn=13335
//	city=Amsterdam,NL dist_km=742 client=188.114.97.0/24 v=5
func appendTXT(dst []byte, ans *Answer, policy Policy) []byte {
	dst = append(dst, "policy="...)
	dst = append(dst, policy.String()...)
	dst = append(dst, " via="...)
	dst = append(dst, ans.ViaVP...)
	dst = append(dst, " replica="...)
	dst = strconv.AppendInt(dst, int64(ans.Replica), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(ans.Replicas), 10)
	dst = append(dst, " asn="...)
	dst = strconv.AppendInt(dst, int64(ans.ASN), 10)
	if ans.Located {
		dst = append(dst, " city="...)
		dst = append(dst, ans.City...)
		dst = append(dst, ',')
		dst = append(dst, ans.CC...)
	}
	dst = append(dst, " dist_km="...)
	dst = strconv.AppendInt(dst, int64(ans.DistKm), 10)
	dst = append(dst, " client="...)
	dst = netsim.AppendPrefix24(dst, ans.Client)
	dst = append(dst, " v="...)
	dst = strconv.AppendUint(dst, ans.Version, 10)
	return dst
}
