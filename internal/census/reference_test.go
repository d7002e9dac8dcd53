package census

import (
	"fmt"
	"runtime"
	"sync"

	"anycastmap/internal/platform"
)

// The whole-run references the tests compare the production path with.
// Nothing outside tests combines whole runs: the campaign folds each
// round as it settles (Campaign.FoldRun, ExecuteRoundPipelined).

// EchoTargets returns how many targets returned an echo reply to at least
// one vantage point.
func (r *Run) EchoTargets() int {
	n := 0
	for t := range r.Targets {
		for v := range r.VPs {
			if r.RTTus[v][t] >= 0 {
				n++
				break
			}
		}
	}
	return n
}

// TotalProbes returns the number of probes sent across all VPs.
func (r *Run) TotalProbes() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Sent
	}
	return n
}

// Combine merges census runs, which must share one target list. It is
// the batch reference the tests hold Campaign's fold to.
func Combine(runs ...*Run) (*Combined, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("census: nothing to combine")
	}
	targets := runs[0].Targets
	for ri, r := range runs[1:] {
		if len(r.Targets) != len(targets) {
			return nil, fmt.Errorf("census: runs have different target lists (%d vs %d)", len(r.Targets), len(targets))
		}
		// Equal lengths are not enough: two censuses over different
		// hitlists of the same size would min-combine RTTs of unrelated
		// targets into garbage. Compare contents and point at the first
		// disagreement.
		for ti, tgt := range r.Targets {
			if tgt != targets[ti] {
				return nil, fmt.Errorf("census: run %d target list diverges at index %d (%v vs %v)",
					ri+1, ti, tgt, targets[ti])
			}
		}
	}

	// Group each VP's rows across runs (first-seen order), then min-merge
	// the rows of different VPs in parallel: the merges are independent,
	// and the grouping fixes both the VP order and the per-VP run order,
	// so the result is identical at any worker count.
	type rowRef struct{ run, vi int }
	byID := make(map[int]int, len(runs[0].VPs)) // vp.ID -> slot
	var vps []platform.VP
	var sources [][]rowRef
	for ri, r := range runs {
		for vi, vp := range r.VPs {
			si, ok := byID[vp.ID]
			if !ok {
				si = len(vps)
				byID[vp.ID] = si
				vps = append(vps, vp)
				sources = append(sources, nil)
			}
			sources[si] = append(sources[si], rowRef{run: ri, vi: vi})
		}
	}

	c := &Combined{Targets: targets, Rounds: len(runs), VPs: vps, RTTus: make([][]int32, len(vps))}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(vps) {
		workers = len(vps)
	}
	var wg sync.WaitGroup
	chunk := (len(vps) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(vps) {
			hi = len(vps)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for si := lo; si < hi; si++ {
				refs := sources[si]
				row := make([]int32, len(targets))
				copy(row, runs[refs[0].run].RTTus[refs[0].vi])
				for _, ref := range refs[1:] {
					src := runs[ref.run].RTTus[ref.vi]
					for t, v := range src {
						if v < 0 {
							continue
						}
						if row[t] < 0 || v < row[t] {
							row[t] = v
						}
					}
				}
				c.RTTus[si] = row
			}
		}(lo, hi)
	}
	wg.Wait()
	return c, nil
}
