// Package services models the TCP service and software inventory of the
// anycast deployments, the ground truth behind the paper's portscan
// campaign (Sec. 4.3, Figs. 14-16): which TCP ports each AS keeps open on
// its anycast addresses, which of those are well-known or SSL services, and
// which software banner an nmap-style fingerprint would reveal.
//
// Named deployments are instantiated from the values the paper reports
// (CloudFlare's 22 ports with only {53, 80, 443} shared with EdgeCast,
// OVH's 10,148 ports from its seedbox ecosystem, Incapsula's 313, Google's
// 9 mail/web/DNS ports, ...); the rest of the top-100 get category-driven
// inventories (DNS providers expose 53, CDNs add 80/443, ISPs add BGP).
package services

import (
	"math/bits"
	"sort"
	"sync"

	"anycastmap/internal/asdb"
	"anycastmap/internal/detrand"
)

// Service is one open TCP port on a deployment.
type Service struct {
	Port      uint16
	Proto     string // nmap-style service name: "http", "domain", "ssh", ...
	SSL       bool
	WellKnown bool
	// Software is the fingerprinted implementation ("ISC BIND", "nginx",
	// ...); empty when fingerprinting fails and nmap would report
	// "tcpwrapped".
	Software string
}

// SoftwareCategory buckets a software name for the Fig. 16 breakdown.
func SoftwareCategory(sw string) string {
	switch sw {
	case "ISC BIND", "NLnet Labs NSD", "Microsoft DNS", "OpenDNS":
		return "DNS"
	case "nginx", "lighttpd", "Apache httpd", "ECD", "Microsoft IIS", "Varnish",
		"Apache Tomcat", "bitasicv2", "CFS 0213", "cloudflare-nginx", "cPanel httpd",
		"thttpd", "ECAcc/ECS", "Google httpd", "instart/160":
		return "Web"
	case "Gmail imapd", "Gmail pop3d", "Google gsmtp":
		return "Mail"
	case "OpenSSH", "MySQL", "sslstrip", "Microsoft RPC", "Microsoft HTTP", "Microsoft SQL",
		"Minecraft", "MythTV":
		return "Other"
	default:
		return ""
	}
}

// AllSoftware lists the 30 software implementations of Fig. 16.
var AllSoftware = []string{
	"ISC BIND", "NLnet Labs NSD", "Microsoft DNS", "OpenDNS",
	"nginx", "lighttpd", "Apache httpd", "ECD", "Microsoft IIS", "Varnish",
	"Apache Tomcat", "bitasicv2", "CFS 0213", "cloudflare-nginx", "cPanel httpd",
	"thttpd", "ECAcc/ECS", "Google httpd", "instart/160",
	"Gmail imapd", "Gmail pop3d", "Google gsmtp",
	"OpenSSH", "MySQL", "sslstrip", "Microsoft RPC", "Microsoft HTTP", "Microsoft SQL",
	"Minecraft", "MythTV",
}

// wellKnownHigh names the assigned services above 1023 that the inventory
// uses; everything below 1024 is considered well-known, like the IANA
// system port range.
var wellKnownHigh = map[uint16]string{
	1935:  "rtmp",
	3306:  "mysql",
	5252:  "movaz-ssc",
	8080:  "http-proxy",
	8083:  "us-srv",
	8443:  "https-alt",
	6543:  "mythtv",
	25565: "minecraft",
	2052:  "clearvisn",
	2053:  "knetd",
	2082:  "cpanel",
	2083:  "cpanel-ssl",
	2086:  "whm",
	2087:  "whm-ssl",
	2095:  "webmail",
	2096:  "webmail-ssl",
	8880:  "cddbp-alt",
	8008:  "http-alt",
	8088:  "radan-http",
}

// portProto returns the nmap-style service name for a port.
func portProto(port uint16) string {
	switch port {
	case 21:
		return "ftp"
	case 22:
		return "ssh"
	case 25:
		return "smtp"
	case 53:
		return "domain"
	case 80:
		return "http"
	case 110:
		return "pop3"
	case 143:
		return "imap"
	case 179:
		return "bgp"
	case 443:
		return "http-ssl"
	case 465:
		return "smtps"
	case 554:
		return "rtsp"
	case 587:
		return "submission"
	case 993:
		return "imaps"
	case 995:
		return "pop3s"
	}
	if name, ok := wellKnownHigh[port]; ok {
		return name
	}
	if port < 1024 {
		return "well-known"
	}
	return "unknown"
}

// sslPort reports whether the port conventionally carries TLS.
func sslPort(port uint16) bool {
	switch port {
	case 443, 465, 993, 995, 2053, 2083, 2087, 2096, 8443:
		return true
	}
	return false
}

// IsWellKnown reports whether the port maps to an assigned service name.
func IsWellKnown(port uint16) bool {
	if port < 1024 {
		return true
	}
	_, ok := wellKnownHigh[port]
	return ok
}

// Set is the open-port inventory of one AS's anycast deployment.
type Set struct {
	ASN      int
	services []Service // sorted by port
	byPort   map[uint16]int
	// ServesDNSOverUDP marks deployments that answer DNS queries over
	// UDP (Fig. 6 protocol-recall experiment).
	ServesDNSOverUDP bool
}

// Services returns the open services sorted by port. The slice must not be
// modified.
func (s *Set) Services() []Service { return s.services }

// Len returns the number of open ports.
func (s *Set) Len() int { return len(s.services) }

// Lookup returns the service on the given port.
func (s *Set) Lookup(port uint16) (Service, bool) {
	if s == nil || s.byPort == nil {
		return Service{}, false
	}
	i, ok := s.byPort[port]
	if !ok {
		return Service{}, false
	}
	return s.services[i], true
}

// Open reports whether the port is open.
func (s *Set) Open(port uint16) bool {
	_, ok := s.Lookup(port)
	return ok
}

// OpenPorts returns the sorted list of open port numbers.
func (s *Set) OpenPorts() []uint16 {
	out := make([]uint16, len(s.services))
	for i, sv := range s.services {
		out[i] = sv.Port
	}
	return out
}

// SoftwareList returns the distinct fingerprinted software names.
func (s *Set) SoftwareList() []string {
	seen := map[string]bool{}
	var out []string
	for _, sv := range s.services {
		if sv.Software != "" && !seen[sv.Software] {
			seen[sv.Software] = true
			out = append(out, sv.Software)
		}
	}
	sort.Strings(out)
	return out
}

func newSet(asn int, dnsUDP bool, svcs []Service) *Set {
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].Port < svcs[j].Port })
	byPort := make(map[uint16]int, len(svcs))
	for i := range svcs {
		svcs[i].Proto = portProto(svcs[i].Port)
		svcs[i].SSL = svcs[i].SSL || sslPort(svcs[i].Port)
		svcs[i].WellKnown = IsWellKnown(svcs[i].Port)
		byPort[svcs[i].Port] = i
	}
	return &Set{ASN: asn, services: svcs, byPort: byPort, ServesDNSOverUDP: dnsUDP}
}

// Inventory maps each AS of the registry to its service set. The sets are
// built on the first ByASN call, not by Build: only the TCP and DNS probe
// paths read them, and an ICMP census never does.
type Inventory struct {
	byASN func() map[int]*Set
}

// ByASN returns the service set of an AS (nil, false if the AS has no open
// TCP service). It is safe for concurrent use.
func (inv *Inventory) ByASN(asn int) (*Set, bool) {
	s, ok := inv.byASN()[asn]
	return s, ok
}

// open is a small helper to build service lists.
func open(ports ...uint16) []Service {
	out := make([]Service, len(ports))
	for i, p := range ports {
		out[i] = Service{Port: p}
	}
	return out
}

// withSoftware annotates the service on the given port with a software name.
func withSoftware(svcs []Service, port uint16, sw string) []Service {
	for i := range svcs {
		if svcs[i].Port == port {
			svcs[i].Software = sw
		}
	}
	return svcs
}

// Build returns the inventory of the registry, deterministic for a given
// seed. Its sets are built on first use.
func Build(reg *asdb.Registry, seed uint64) *Inventory {
	return &Inventory{byASN: sync.OnceValue(func() map[int]*Set { return buildSets(reg, seed) })}
}

// buildSets builds every AS's service set.
func buildSets(reg *asdb.Registry, seed uint64) map[int]*Set {
	byASN := make(map[int]*Set, reg.Len())

	add := func(name string, dnsUDP bool, svcs []Service) {
		a := reg.MustByName(name)
		byASN[a.ASN] = newSet(a.ASN, dnsUDP, svcs)
	}

	// CloudFlare: 22 open ports, the cPanel-style 2xxx range plus web and
	// DNS; cloudflare-nginx on the HTTP ports (Fig. 14 bottom: its 328
	// /24s dominate the per-/24 port frequencies).
	cf := open(53, 80, 443, 2052, 2053, 2082, 2083, 2086, 2087, 2095, 2096,
		8080, 8443, 8880, 8008, 8088, 2080, 2090, 2091, 2093, 2094, 2098)
	cf = withSoftware(cf, 80, "cloudflare-nginx")
	cf = withSoftware(cf, 8080, "cloudflare-nginx")
	cf = withSoftware(cf, 443, "CFS 0213")
	add("CLOUDFLARENET,US", true, cf)

	// EdgeCast: one quarter of CloudFlare's footprint, sharing only
	// {53, 80, 443}; proprietary ECAcc/ECS/ECD web servers and RTMP
	// streaming.
	ec := open(53, 80, 443, 1935, 554)
	ec = withSoftware(ec, 80, "ECAcc/ECS")
	ec = withSoftware(ec, 443, "ECD")
	add("EDGECAST,US", false, ec)

	// Google: public DNS plus the Gmail mail stack (Sec. 4.3) - 9 ports.
	gg := open(53, 80, 443, 25, 110, 143, 465, 993, 587)
	gg = withSoftware(gg, 80, "Google httpd")
	gg = withSoftware(gg, 25, "Google gsmtp")
	gg = withSoftware(gg, 587, "Google gsmtp")
	gg = withSoftware(gg, 110, "Gmail pop3d")
	gg = withSoftware(gg, 143, "Gmail imapd")
	add("GOOGLE,US", true, gg)

	// OVH: the largest hosting provider in Europe; its seedbox ecosystem
	// leaves ~10,148 ports open (Fig. 15). Several hundred are in the
	// well-known range.
	ovh := buildBulkPorts(seed, 10148, 450)
	ovh = withSoftware(ovh, 80, "Apache httpd")
	ovh = withSoftware(ovh, 22, "OpenSSH")
	ovh = withSoftware(ovh, 3306, "MySQL")
	add("OVH,FR", false, ovh)

	// Incapsula: 313 open ports (Fig. 15), a DDoS-protection proxy that
	// keeps many customer ports reachable.
	inc := buildBulkPorts(seed+1, 313, 7)
	inc = withSoftware(inc, 80, "nginx")
	add("INCAPSULA,US", false, inc)

	// Microsoft: cloud stack.
	ms := open(53, 80, 443, 1433, 135)
	ms = withSoftware(ms, 53, "Microsoft DNS")
	ms = withSoftware(ms, 80, "Microsoft HTTP")
	ms = withSoftware(ms, 443, "Microsoft IIS")
	ms = withSoftware(ms, 1433, "Microsoft SQL")
	ms = withSoftware(ms, 135, "Microsoft RPC")
	add("MICROSOFT,US", false, ms)

	// OpenDNS: DNS resolver with a block page web server.
	od := open(53, 80, 443)
	od = withSoftware(od, 53, "OpenDNS")
	od = withSoftware(od, 80, "nginx")
	add("OPENDNS,US", true, od)

	// NSD deployments: root servers hardened against BIND monoculture
	// (Sec. 4.3), plus Apple.
	for _, name := range []string{"APPLE-ENGINEERING,US", "K-ROOT-SERVER,NL", "L-ROOT,US"} {
		s := open(53)
		s = withSoftware(s, 53, "NLnet Labs NSD")
		add(name, true, s)
	}

	// A tier-1 ISP with several stateful services (Sec. 4.3 notes Tinet
	// among the 22 ASes with at least 4 open ports).
	tinet := open(53, 80, 179, 22)
	tinet = withSoftware(tinet, 22, "OpenSSH")
	add("TINET-BACKBONE,DE", false, tinet)

	// Multimedia and gaming oddities the paper calls out.
	mns := open(80, 443, 554, 1935, 6543)
	mns = withSoftware(mns, 6543, "MythTV")
	add("MNS-AS,NO", false, mns)
	add("AS-QUADRANET,US", false, withSoftware(open(80, 25565), 25565, "Minecraft"))

	// Fastly / CDNs with Varnish and nginx front ends.
	fst := open(53, 80, 443)
	fst = withSoftware(fst, 80, "Varnish")
	add("FASTLY,US", true, fst)
	in160 := open(80, 443)
	in160 = withSoftware(in160, 80, "instart/160")
	add("INSTART,US", false, in160)
	bg := open(80, 443, 8080)
	bg = withSoftware(bg, 80, "bitasicv2")
	add("BITGRAVITY,US", false, bg)
	am := open(80, 443)
	am = withSoftware(am, 80, "Apache Tomcat")
	add("OMNITURE,US", false, am)
	at := open(80, 443)
	at = withSoftware(at, 80, "nginx")
	add("AUTOMATTIC,US", false, at)
	cp := open(80, 443, 2082, 2083)
	cp = withSoftware(cp, 80, "cPanel httpd")
	add("HOMEPL-AS,PL", false, cp)
	th := open(80)
	th = withSoftware(th, 80, "thttpd")
	add("QUANTCAST,US", false, th)
	ss := open(80, 443, 8083)
	ss = withSoftware(ss, 443, "sslstrip")
	add("CEDEXIS,US", false, ss)

	// Remaining ASes: category-driven defaults. The portscan statistics
	// require ~81 of the top-100 to expose at least one TCP port, with
	// only ~22 having four or more.
	webSW := []string{"nginx", "Apache httpd", "lighttpd", "nginx", "lighttpd", "Microsoft IIS", "Apache httpd", "nginx", "Varnish", "lighttpd", "Apache httpd", "nginx", "nginx"}
	webIdx := 0
	dnsIdx := 0
	for _, a := range reg.Top100() {
		if _, done := byASN[a.ASN]; done {
			continue
		}
		// A fraction of deployments expose no TCP service at all: UDP-only
		// DNS servers and fully firewalled infrastructure. This is what
		// keeps the portscan at ~81 of 100 ASes with any open port
		// (Fig. 14) despite ICMP reaching all of them.
		if detrand.UnitFloat(seed, uint64(a.ASN), 11) < noTCPProb(a.Category) {
			byASN[a.ASN] = newSet(a.ASN, a.Category.Coarse() == "DNS", nil)
			continue
		}
		switch a.Category.Coarse() {
		case "DNS":
			svcs := open(53)
			// nmap identifies the DNS software for only about a third
			// of the port-53 ASes (44 of 67 stay unidentified).
			if dnsIdx%3 == 0 {
				svcs = withSoftware(svcs, 53, "ISC BIND")
			}
			dnsIdx++
			// A couple of registries also run a web front end.
			if detrand.UnitFloat(seed, uint64(a.ASN), 1) < 0.25 {
				svcs = append(svcs, Service{Port: 80})
			}
			byASN[a.ASN] = newSet(a.ASN, true, svcs)
		case "CDN":
			svcs := open(80, 443)
			if detrand.UnitFloat(seed, uint64(a.ASN), 2) < 0.5 {
				svcs = append(svcs, Service{Port: 53})
			}
			if detrand.UnitFloat(seed, uint64(a.ASN), 3) < 0.3 {
				svcs = append(svcs, Service{Port: 8080}, Service{Port: 8083})
			}
			svcs = withSoftware(svcs, 80, webSW[webIdx%len(webSW)])
			webIdx++
			byASN[a.ASN] = newSet(a.ASN, false, svcs)
		case "ISP":
			// ISPs anycast internal infrastructure; BGP and SSH show up.
			svcs := open(179)
			if detrand.UnitFloat(seed, uint64(a.ASN), 4) < 0.5 {
				svcs = append(svcs, Service{Port: 22, Software: "OpenSSH"})
			}
			if detrand.UnitFloat(seed, uint64(a.ASN), 5) < 0.5 {
				svcs = append(svcs, Service{Port: 53}, Service{Port: 80})
			}
			byASN[a.ASN] = newSet(a.ASN, false, svcs)
		case "Cloud", "Security", "Social", "Other":
			svcs := open(80, 443)
			if detrand.UnitFloat(seed, uint64(a.ASN), 6) < 0.35 {
				svcs = append(svcs, Service{Port: 53})
			}
			if detrand.UnitFloat(seed, uint64(a.ASN), 7) < 0.25 {
				svcs = append(svcs, Service{Port: 22, Software: "OpenSSH"}, Service{Port: 3306, Software: "MySQL"})
			}
			if detrand.UnitFloat(seed, uint64(a.ASN), 8) < 0.15 {
				svcs = append(svcs, Service{Port: 5252}, Service{Port: 1935})
			}
			svcs = withSoftware(svcs, 80, webSW[webIdx%len(webSW)])
			webIdx++
			byASN[a.ASN] = newSet(a.ASN, false, svcs)
		default:
			// "Unknown" ASes: ~half expose nothing (these account for
			// the top-100 members without open TCP ports).
			if detrand.UnitFloat(seed, uint64(a.ASN), 9) < 0.35 {
				byASN[a.ASN] = newSet(a.ASN, false, open(80))
			}
		}
	}

	// The 246-AS tail: mostly DNS-over-UDP only; TCP 53 open for most.
	for _, a := range reg.All() {
		if a.Top100 {
			continue
		}
		if _, done := byASN[a.ASN]; done {
			continue
		}
		switch a.Category.Coarse() {
		case "DNS":
			byASN[a.ASN] = newSet(a.ASN, true, open(53))
		default:
			if detrand.UnitFloat(seed, uint64(a.ASN), 10) < 0.6 {
				byASN[a.ASN] = newSet(a.ASN, false, open(80, 443))
			}
		}
	}
	return byASN
}

// noTCPProb is the probability that a deployment of the given category
// filters every TCP port (UDP-only DNS, ICMP-only infrastructure).
func noTCPProb(cat asdb.Category) float64 {
	switch cat.Coarse() {
	case "DNS":
		return 0.15
	case "ISP":
		return 0.25
	case "Cloud", "Security":
		return 0.15
	case "CDN":
		return 0.04
	default:
		return 0.10
	}
}

// buildBulkPorts produces a deterministic large port inventory: the three
// service staples, lowWellKnown ports drawn from the system range, and the
// rest spread over the ephemeral range. The draws mark a bit per port, so
// the inventory comes out in port order with no map and no sort.
func buildBulkPorts(seed uint64, total, lowWellKnown int) []Service {
	var set [1 << 16 / 64]uint64
	n := 0
	mark := func(p uint16) {
		if set[p/64]&(1<<(p%64)) == 0 {
			set[p/64] |= 1 << (p % 64)
			n++
		}
	}
	for _, p := range []uint16{53, 80, 443, 22, 3306, 21, 25} {
		mark(p)
	}
	for i := 0; n < lowWellKnown; i++ {
		mark(uint16(detrand.Intn(1023, seed, uint64(i), 0xB07) + 1))
	}
	for i := 0; n < total; i++ {
		mark(uint16(detrand.Intn(64512, seed, uint64(i), 0xB17) + 1024))
	}
	out := make([]Service, 0, n)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			p := uint16(w*64 + bits.TrailingZeros64(word))
			// A sliver of the seedbox services run HTTPS on arbitrary high
			// ports (the paper finds 185 SSL services in the 10.5k union).
			ssl := detrand.UnitFloat(seed, uint64(p), 0xB55) < 0.017
			out = append(out, Service{Port: p, SSL: ssl})
		}
	}
	return out
}
