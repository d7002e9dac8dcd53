package experiments

import (
	"fmt"
	"strings"

	"anycastmap/internal/baseline"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// BaselineComparison reproduces the Sec. 2.2 positioning of the paper's
// technique against prior art, on live campaign data.
type BaselineComparison struct {
	// DNS deployments: CHAOS enumeration vs iGreedy vs truth.
	DNSTargets   int
	TruthTotal   int
	CHAOSTotal   int
	IGreedyTotal int
	// CHAOS is blind beyond DNS.
	NonDNSTargets      int
	CHAOSNonDNSAnswers int
	// Geolocation databases: one location per prefix; at most one replica
	// of each deployment can match it.
	DBPrefixes       int
	DBReplicaMatches int
	DBReplicaTotal   int
	// Constraint-based geolocation feasibility.
	AnycastTargets     int
	CBGFeasibleAnycast int
	UnicastTargets     int
	CBGFeasibleUnicast int
}

// Baselines runs every prior-art comparison over a sample of campaign
// targets.
func (l *Lab) Baselines(sampleSize int) BaselineComparison {
	res := BaselineComparison{}
	geoDB := baseline.BuildGeoDB(l.World, l.World.Registry, l.Cities)
	vps := l.roundVPs(0)

	measureTarget := func(target netsim.IP) []core.Measurement {
		return measureFromVPs(vps, l.Config.Censuses, func(vp platform.VP, round uint64) netsim.Reply {
			return l.World.ProbeICMP(vp, target, round)
		})
	}

	// Anycast side: walk a sample of the detected deployments.
	for _, f := range l.Findings {
		if res.DNSTargets+res.NonDNSTargets >= sampleSize {
			break
		}
		d, _ := l.World.Deployment(f.Prefix)
		target, _ := l.World.Representative(f.Prefix)
		set, hasSvc := l.World.Services.ByASN(d.ASN)
		isDNS := hasSvc && set.ServesDNSOverUDP

		chaos, err := baseline.CHAOSEnumerate(l.World, vps, target, l.Config.Censuses)
		if err != nil {
			panic(fmt.Sprintf("baselines: %v", err))
		}
		if isDNS {
			res.DNSTargets++
			res.TruthTotal += len(d.Replicas)
			res.CHAOSTotal += chaos.Count()
			res.IGreedyTotal += f.Result.Count()
		} else {
			res.NonDNSTargets++
			if chaos.Answered {
				res.CHAOSNonDNSAnswers++
			}
		}

		if home, ok := geoDB.Lookup(f.Prefix); ok {
			res.DBPrefixes++
			for _, r := range d.Replicas {
				res.DBReplicaTotal++
				if r.City.Key() == home.Key() {
					res.DBReplicaMatches++
				}
			}
		}

		res.AnycastTargets++
		if baseline.CBGLocate(measureTarget(target)).Feasible {
			res.CBGFeasibleAnycast++
		}
	}

	// Unicast side: CBG should succeed on responsive single-location
	// targets.
	count := 0
	l.World.Prefixes(func(p netsim.Prefix24) {
		if count >= sampleSize/2 || l.World.IsAnycast(p) {
			return
		}
		ip, alive := l.World.Representative(p)
		if !alive {
			return
		}
		ms := measureTarget(ip)
		if len(ms) < 10 {
			return
		}
		count++
		res.UnicastTargets++
		if baseline.CBGLocate(ms).Feasible {
			res.CBGFeasibleUnicast++
		}
	})
	return res
}

// Report renders the comparison.
func (r BaselineComparison) Report() string {
	var b strings.Builder
	b.WriteString("Baselines - prior art reproduced on campaign data (Sec. 2.2)\n")
	fmt.Fprintf(&b, "  CHAOS [25] on %d DNS deployments: %d instances vs iGreedy %d (truth %d)\n",
		r.DNSTargets, r.CHAOSTotal, r.IGreedyTotal, r.TruthTotal)
	fmt.Fprintf(&b, "  CHAOS beyond DNS: %d answers on %d non-DNS anycast deployments (blind, as argued)\n",
		r.CHAOSNonDNSAnswers, r.NonDNSTargets)
	fmt.Fprintf(&b, "  geo databases [41]: %d of %d replicas match the single stored location (%.0f%%)\n",
		r.DBReplicaMatches, r.DBReplicaTotal, 100*float64(r.DBReplicaMatches)/float64(max(1, r.DBReplicaTotal)))
	fmt.Fprintf(&b, "  CBG triangulation [28]: feasible on %d/%d unicast but only %d/%d anycast targets\n",
		r.CBGFeasibleUnicast, r.UnicastTargets, r.CBGFeasibleAnycast, r.AnycastTargets)
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
