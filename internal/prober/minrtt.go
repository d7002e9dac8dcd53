package prober

import (
	"time"

	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// MinRTT measures one target the way the census combination does
// (Sec. 4.1): probe asks each vantage point once per round, rounds 1
// through rounds, and every vantage point that answered at least once
// yields a measurement carrying its minimum echo RTT, in vps order.
func MinRTT(vps []platform.VP, rounds int, probe func(vp platform.VP, round uint64) netsim.Reply) []core.Measurement {
	var ms []core.Measurement
	for _, vp := range vps {
		best := time.Duration(-1)
		for r := 1; r <= rounds; r++ {
			if reply := probe(vp, uint64(r)); reply.OK() && (best < 0 || reply.RTT < best) {
				best = reply.RTT
			}
		}
		if best >= 0 {
			ms = append(ms, core.Measurement{VP: vp.Name, VPLoc: vp.Loc, RTT: best})
		}
	}
	return ms
}
