package experiments

import (
	"fmt"
	"sort"
	"strings"

	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/groundtruth"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// targetIndex finds a prefix's index in the combined target list.
func (l *Lab) targetIndex(p netsim.Prefix24) (int, bool) {
	for i, ip := range l.Combined.Targets {
		if ip.Prefix() == p {
			return i, true
		}
	}
	return -1, false
}

// Fig5Result compares the Microsoft deployment as seen from PlanetLab and
// from RIPE Atlas.
type Fig5Result struct {
	TrueReplicas   int
	PLReplicas     int
	RIPEReplicas   int
	PLCities       []string
	RIPECities     []string
	SubsetFraction float64 // fraction of PL cities also found via RIPE
}

// PaperFig5 records the paper's counts: 21 replicas from PlanetLab, 54 from
// RIPE, with the PlanetLab set a subset of the RIPE set.
var PaperFig5 = struct{ PL, RIPE int }{21, 54}

// Fig5 analyzes one Microsoft /24 from both platforms.
func (l *Lab) Fig5() Fig5Result {
	ms := l.World.Registry.MustByName("MICROSOFT,US")
	d := l.World.DeploymentsByASN(ms.ASN)[0]

	res := Fig5Result{TrueReplicas: len(d.Replicas)}
	target, _ := l.World.Representative(d.Prefix)

	if ti, ok := l.targetIndex(d.Prefix); ok {
		pl := core.Analyze(l.Cities, l.Combined.Measurements(ti), core.Options{})
		res.PLReplicas = pl.Count()
		res.PLCities = pl.Cities()
	}

	ripeMs := prober.MinRTT(l.RIPE.VPs(), l.Config.Censuses, func(vp platform.VP, round uint64) netsim.Reply {
		return l.World.ProbeICMP(vp, target, round)
	})
	ripe := core.Analyze(l.Cities, ripeMs, core.Options{})
	res.RIPEReplicas = ripe.Count()
	res.RIPECities = ripe.Cities()

	ripeSet := map[string]bool{}
	for _, c := range res.RIPECities {
		ripeSet[c] = true
	}
	matched := 0
	for _, c := range res.PLCities {
		if ripeSet[c] {
			matched++
		}
	}
	if len(res.PLCities) > 0 {
		res.SubsetFraction = float64(matched) / float64(len(res.PLCities))
	}
	return res
}

// Report renders the platform comparison.
func (r Fig5Result) Report() string {
	return fmt.Sprintf("Fig. 5 - Microsoft deployment, PlanetLab vs RIPE (truth: %d replicas)\n"+
		"  PlanetLab: %d replicas (paper %d)   RIPE: %d replicas (paper %d)\n"+
		"  PL cities also found by RIPE: %.0f%% (paper: PL is a subset of RIPE)\n",
		r.TrueReplicas, r.PLReplicas, PaperFig5.PL, r.RIPEReplicas, PaperFig5.RIPE, 100*r.SubsetFraction)
}

// Fig6Result holds the protocol-recall matrix: response ratio per
// (deployment, protocol).
type Fig6Result struct {
	Deployments []string
	Protocols   []string
	// Ratio[d][p] is the fraction of probes answered.
	Ratio [][]float64
}

// fig6Protocols in display order (Fig. 6 x-axis).
var fig6Protocols = []string{"ICMP", "TCP-53", "TCP-80", "DNS/UDP", "DNS/TCP"}

// Fig6 measures the response ratio of each probing protocol against the
// four deployments of the paper's test (100 probes each).
func (l *Lab) Fig6() Fig6Result {
	deployments := []string{"OPENDNS,US", "EDGECAST,US", "CLOUDFLARENET,US", "MICROSOFT,US"}
	res := Fig6Result{Deployments: deployments, Protocols: fig6Protocols}
	vps := l.PL.VPs()
	for _, name := range deployments {
		as := l.World.Registry.MustByName(name)
		d := l.World.DeploymentsByASN(as.ASN)[0]
		target, _ := l.World.Representative(d.Prefix)
		row := make([]float64, len(fig6Protocols))
		for pi, proto := range fig6Protocols {
			ok := 0
			const probes = 100
			for i := 0; i < probes; i++ {
				vp := vps[i%len(vps)]
				round := uint64(1 + i/len(vps))
				var reply netsim.Reply
				switch proto {
				case "ICMP":
					reply = l.World.ProbeICMP(vp, target, round)
				case "TCP-53":
					reply = l.World.ProbeTCP(vp, target, 53, round)
				case "TCP-80":
					reply = l.World.ProbeTCP(vp, target, 80, round)
				case "DNS/UDP":
					reply = l.World.ProbeDNSUDP(vp, target, round)
				case "DNS/TCP":
					reply = l.World.ProbeDNSTCP(vp, target, round)
				}
				if reply.OK() {
					ok++
				}
			}
			row[pi] = float64(ok) / probes
		}
		res.Ratio = append(res.Ratio, row)
	}
	return res
}

// Report renders the protocol matrix.
func (r Fig6Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 - response ratio by protocol (binary recall for L4/L7, ICMP near-total)\n")
	fmt.Fprintf(&b, "  %-18s", "")
	for _, p := range r.Protocols {
		fmt.Fprintf(&b, "%9s", p)
	}
	b.WriteString("\n")
	for di, d := range r.Deployments {
		fmt.Fprintf(&b, "  %-18s", strings.Split(d, ",")[0])
		for pi := range r.Protocols {
			fmt.Fprintf(&b, "%8.0f%%", 100*r.Ratio[di][pi])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig7Result validates geolocation against the HTTP ground truth of one
// CDN.
type Fig7Result struct {
	AS      string
	Summary groundtruth.Summary
}

// PaperFig7 records the paper's validation outcomes.
var PaperFig7 = map[string]struct {
	TPR         float64
	MedianErrKm float64
}{
	"CLOUDFLARENET,US": {0.77, 434},
	"EDGECAST,US":      {0.65, 287},
}

// Fig7 validates every detected /24 of the disclosing CDNs against the
// CF-RAY / Server header ground truth collected from PlanetLab.
func (l *Lab) Fig7() []Fig7Result {
	byPrefix := map[netsim.Prefix24]core.Result{}
	for _, f := range l.Findings {
		byPrefix[f.Prefix] = f.Result
	}
	vps := l.roundVPs(0)
	var out []Fig7Result
	for _, name := range []string{"CLOUDFLARENET,US", "EDGECAST,US"} {
		as := l.World.Registry.MustByName(name)
		pai := len(groundtruth.PAI(l.World, as.ASN))
		var vs []groundtruth.PrefixValidation
		for _, d := range l.World.DeploymentsByASN(as.ASN) {
			res, detected := byPrefix[d.Prefix]
			if !detected {
				continue
			}
			gt, ok := groundtruth.Collect(l.World, vps, d.Prefix, 1)
			if !ok || len(gt.Cities) == 0 {
				continue
			}
			vs = append(vs, groundtruth.ValidatePrefix(res, gt, pai))
		}
		out = append(out, Fig7Result{AS: name, Summary: groundtruth.Summarize(vs)})
	}
	return out
}

// ReportFig7 renders the validation results.
func ReportFig7(rs []Fig7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 - validation against HTTP ground truth (CF-RAY / Server headers)\n")
	for _, r := range rs {
		p := PaperFig7[r.AS]
		fmt.Fprintf(&b, "  %-18s TPR %.0f%%±%.0f (paper %.0f%%)  median err %.0f km (paper %.0f)  GT/PAI %.2f±%.2f  [%d /24s]\n",
			strings.Split(r.AS, ",")[0], 100*r.Summary.MeanTPR, 100*r.Summary.StdTPR, 100*p.TPR,
			r.Summary.MedianErrKm, p.MedianErrKm, r.Summary.MeanGTOverPAI, r.Summary.StdGTOverPAI, r.Summary.Prefixes)
	}
	return b.String()
}

// OpenDNSResult is the Sec. 3.4 consistency check: the same deployment
// analyzed through every probing protocol.
type OpenDNSResult struct {
	TrueSites int
	// InstancesByProtocol maps protocol -> enumerated replicas.
	InstancesByProtocol map[string]int
	// CorrectCities / TotalLocated score the ICMP classification against
	// the published locations.
	CorrectCities, TotalLocated int
	// PopulationBias reports the documented failure mode of the
	// classifier (the paper's Philadelphia-for-Ashburn anecdote): a
	// replica classified to a more populated city near a true, smaller
	// site.
	PopulationBias bool
	// BiasExample names one observed (classified, true) city pair.
	BiasExample string
}

// OpenDNS runs the consistency experiment.
func (l *Lab) OpenDNS() OpenDNSResult {
	as := l.World.Registry.MustByName("OPENDNS,US")
	d := l.World.DeploymentsByASN(as.ASN)[0]
	target, _ := l.World.Representative(d.Prefix)
	pai := groundtruth.PAI(l.World, as.ASN)

	res := OpenDNSResult{
		TrueSites:           len(d.Replicas),
		InstancesByProtocol: map[string]int{},
	}
	probes := map[string]func(platform.VP, uint64) netsim.Reply{
		"ICMP":    func(vp platform.VP, r uint64) netsim.Reply { return l.World.ProbeICMP(vp, target, r) },
		"TCP-53":  func(vp platform.VP, r uint64) netsim.Reply { return l.World.ProbeTCP(vp, target, 53, r) },
		"TCP-80":  func(vp platform.VP, r uint64) netsim.Reply { return l.World.ProbeTCP(vp, target, 80, r) },
		"DNS/UDP": func(vp platform.VP, r uint64) netsim.Reply { return l.World.ProbeDNSUDP(vp, target, r) },
		"DNS/TCP": func(vp platform.VP, r uint64) netsim.Reply { return l.World.ProbeDNSTCP(vp, target, r) },
	}
	for proto, probe := range probes {
		ms := prober.MinRTT(l.PL.VPs(), l.Config.Censuses, probe)
		r := core.Analyze(l.Cities, ms, core.Options{})
		res.InstancesByProtocol[proto] = r.Count()
		if proto != "ICMP" {
			continue
		}
		for _, rep := range r.Replicas {
			if !rep.Located {
				continue
			}
			res.TotalLocated++
			if _, ok := pai[rep.City.Key()]; ok {
				res.CorrectCities++
				continue
			}
			// Misclassified: is this the population bias at work - a
			// bigger city absorbing a nearby smaller true site?
			for _, truth := range pai {
				if rep.City.Population > truth.Population &&
					geo.DistanceKm(rep.City.Loc, truth.Loc) < 400 {
					res.PopulationBias = true
					res.BiasExample = fmt.Sprintf("%v classified where %v serves", rep.City, truth)
					break
				}
			}
		}
	}
	return res
}

// Report renders the consistency check.
func (r OpenDNSResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. 3.4 - OpenDNS consistency (%d published sites; paper finds 15-17 instances)\n", r.TrueSites)
	protos := make([]string, 0, len(r.InstancesByProtocol))
	for p := range r.InstancesByProtocol {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	for _, p := range protos {
		fmt.Fprintf(&b, "  %-8s %d instances\n", p, r.InstancesByProtocol[p])
	}
	fmt.Fprintf(&b, "  ICMP classification: %d/%d cities correct; population bias observed: %v (paper: Philadelphia-for-Ashburn)\n",
		r.CorrectCities, r.TotalLocated, r.PopulationBias)
	if r.BiasExample != "" {
		fmt.Fprintf(&b, "  example: %s\n", r.BiasExample)
	}
	return b.String()
}
