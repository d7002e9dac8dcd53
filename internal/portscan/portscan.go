// Package portscan implements the nmap-style TCP service scan of Sec. 4.3:
// for each anycast /24 of the top-100 ASes, one representative address is
// scanned - at low rate, here meaning bounded concurrency - across the full
// 2^16 TCP port space, and open services are fingerprinted. The scan is
// conservative by construction: distinct addresses of a /24 may expose
// different ports, and in-path filtering eats a fraction of the SYNs.
package portscan

import (
	"runtime"
	"sort"
	"sync"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/services"
)

// OpenPort is one discovered service on a scanned host.
type OpenPort struct {
	Port uint16
	// Proto is the nmap service name associated with the port number.
	Proto string
	SSL   bool
	// WellKnown means the port maps to an assigned service.
	WellKnown bool
	// Software is the fingerprinted implementation; empty means the scan
	// saw an open port but no identifiable banner ("tcpwrapped").
	Software string
}

// HostReport is the scan outcome for one representative address.
type HostReport struct {
	Target netsim.IP
	Open   []OpenPort // sorted by port
}

// Responded reports whether any TCP port answered.
func (h HostReport) Responded() bool { return len(h.Open) > 0 }

// OpenPortSet returns the open port numbers as a set.
func (h HostReport) OpenPortSet() map[uint16]bool {
	out := make(map[uint16]bool, len(h.Open))
	for _, p := range h.Open {
		out[p.Port] = true
	}
	return out
}

// Config tunes a scan campaign.
type Config struct {
	// Ports lists the ports to probe; nil means the full 2^16 space
	// (port 0 excluded).
	Ports []uint16
	// Workers bounds concurrent per-host scans; 0 means GOMAXPROCS.
	Workers int
	// Round decorrelates the in-path filtering draw.
	Round uint64
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Campaign is the outcome of scanning a target list.
type Campaign struct {
	Reports []HostReport // one per target, in input order
}

// RespondingHosts counts targets with at least one open port.
func (c *Campaign) RespondingHosts() int {
	n := 0
	for _, r := range c.Reports {
		if r.Responded() {
			n++
		}
	}
	return n
}

// Scan probes every target on every configured port from the given vantage
// point and fingerprints the open services.
func Scan(w *netsim.World, vp platform.VP, targets []netsim.IP, cfg Config) *Campaign {
	camp := &Campaign{Reports: make([]HostReport, len(targets))}
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.workers())
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			camp.Reports[i] = scanHost(w, vp, targets[i], cfg)
		}(i)
	}
	wg.Wait()
	return camp
}

// scanHost scans one representative address.
func scanHost(w *netsim.World, vp platform.VP, target netsim.IP, cfg Config) HostReport {
	rep := HostReport{Target: target}
	probe := func(port uint16) {
		if !w.ProbeTCP(vp, target, port, cfg.Round).OK() {
			return
		}
		sw, _ := w.BannerTCP(vp, target, port, cfg.Round)
		rep.Open = append(rep.Open, OpenPort{
			Port:      port,
			Proto:     protoName(port),
			SSL:       w.ProbeTLS(vp, target, port, cfg.Round),
			WellKnown: services.IsWellKnown(port),
			Software:  sw,
		})
	}
	if cfg.Ports != nil {
		for _, p := range cfg.Ports {
			probe(p)
		}
	} else {
		for p := 1; p <= 0xFFFF; p++ {
			probe(uint16(p))
		}
	}
	sort.Slice(rep.Open, func(a, b int) bool { return rep.Open[a].Port < rep.Open[b].Port })
	return rep
}

// protoName and sslName mirror the scanner-side port classification (an
// nmap-services lookup); they intentionally do not consult the deployment
// inventory, which the scanner cannot see.
func protoName(port uint16) string {
	switch port {
	case 22:
		return "ssh"
	case 53:
		return "domain"
	case 80:
		return "http"
	case 179:
		return "bgp"
	case 443:
		return "http-ssl"
	case 1935:
		return "rtmp"
	case 3306:
		return "mysql"
	case 5252:
		return "movaz-ssc"
	case 8080:
		return "http-proxy"
	case 8083:
		return "us-srv"
	}
	if services.IsWellKnown(port) {
		return "well-known"
	}
	return "unknown"
}
