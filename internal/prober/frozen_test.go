package prober

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

func TestFrozenGreylistMatchesMutable(t *testing.T) {
	g := NewGreylist()
	for i := 0; i < 5000; i += 3 {
		g.Add(netsim.IP(1<<24+i*977), netsim.ReplyAdminFiltered)
	}
	f := g.Freeze()
	if f.Len() != g.Len() {
		t.Fatalf("frozen Len %d != mutable Len %d", f.Len(), g.Len())
	}
	for i := 0; i < 5000; i++ {
		ip := netsim.IP(1<<24 + i*977)
		if f.Contains(ip) != g.Contains(ip) {
			t.Fatalf("frozen/mutable disagree on %v", ip)
		}
	}
	if g.Freeze() != f {
		t.Fatal("Freeze without mutation should return the cached view")
	}
	g.Add(netsim.IP(42), netsim.ReplyNetProhibited)
	f2 := g.Freeze()
	if f2 == f {
		t.Fatal("Add did not invalidate the frozen view")
	}
	if !f2.Contains(netsim.IP(42)) || f.Contains(netsim.IP(42)) {
		t.Fatal("new view must see the addition, old view must not")
	}

	other := NewGreylist()
	other.Add(netsim.IP(99), netsim.ReplyHostProhibited)
	g.Merge(other)
	if !g.Freeze().Contains(netsim.IP(99)) {
		t.Fatal("Merge did not invalidate the frozen view")
	}

	var nilG *Greylist
	if nilG.Freeze().Contains(netsim.IP(1)) {
		t.Fatal("nil greylist must freeze to an empty view")
	}
}

// TestGreylistMergeEdges holds Merge to its contract on the inputs a
// round's fold can hand it: nil (a frame with no discoveries), the list
// itself, an empty list, and lists that re-add or change the kind of known
// hosts must neither panic, deadlock nor drop the frozen view probing runs
// share; only a new host invalidates it.
func TestGreylistMergeEdges(t *testing.T) {
	base := func() *Greylist {
		g := NewGreylist()
		g.Add(netsim.IP(10), netsim.ReplyAdminFiltered)
		g.Add(netsim.IP(20), netsim.ReplyNetProhibited)
		return g
	}
	of := func(entries map[netsim.IP]netsim.ReplyKind) func(*Greylist) *Greylist {
		return func(*Greylist) *Greylist { return FromSnapshot(entries) }
	}
	for _, c := range []struct {
		name     string
		other    func(g *Greylist) *Greylist
		want     map[netsim.IP]netsim.ReplyKind
		keepView bool
	}{
		{"nil", func(*Greylist) *Greylist { return nil }, nil, true},
		{"itself", func(g *Greylist) *Greylist { return g }, nil, true},
		{"empty", of(nil), nil, true},
		{"known host", of(map[netsim.IP]netsim.ReplyKind{10: netsim.ReplyAdminFiltered}), nil, true},
		{"known host, new kind", of(map[netsim.IP]netsim.ReplyKind{20: netsim.ReplyHostProhibited}),
			map[netsim.IP]netsim.ReplyKind{10: netsim.ReplyAdminFiltered, 20: netsim.ReplyHostProhibited}, true},
		{"new host", of(map[netsim.IP]netsim.ReplyKind{30: netsim.ReplyAdminFiltered, 10: netsim.ReplyAdminFiltered}),
			map[netsim.IP]netsim.ReplyKind{10: netsim.ReplyAdminFiltered, 20: netsim.ReplyNetProhibited, 30: netsim.ReplyAdminFiltered}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := base()
			want := c.want
			if want == nil {
				want = base().Snapshot()
			}
			view := g.Freeze()
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				g.Merge(c.other(g))
			}()
			select {
			case p := <-done:
				if p != nil {
					t.Fatalf("Merge panicked: %v", p)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Merge deadlocked")
			}
			if got := g.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("after Merge: %v, want %v", got, want)
			}
			if kept := g.Freeze() == view; kept != c.keepView {
				t.Errorf("frozen view kept = %v, want %v", kept, c.keepView)
			}
			if f := g.Freeze(); f.Len() != len(want) {
				t.Errorf("frozen view holds %d hosts, want %d", f.Len(), len(want))
			}
		})
	}
}

// TestFrozenGreylistWindow pins the span windowing the probing hot path
// relies on: membership through any [lo, hi] window matches the full
// view for addresses inside the window, and everything outside reads
// absent.
func TestFrozenGreylistWindow(t *testing.T) {
	g := NewGreylist()
	for i := 0; i < 4000; i += 2 {
		g.Add(netsim.IP(1<<20+i*131), netsim.ReplyAdminFiltered)
	}
	f := g.Freeze()
	for _, w := range [][2]netsim.IP{
		{0, ^netsim.IP(0)},               // everything
		{1 << 20, 1<<20 + 1000},          // head slice
		{1<<20 + 99999, 1<<20 + 200000},  // middle
		{1<<20 + 523999, 1<<20 + 524000}, // tail edge
		{5, 9},                           // empty, below
		{1 << 30, 1<<30 + 5},             // empty, above
		{1<<20 + 131, 1<<20 + 131},       // single address
	} {
		win := f.Window(w[0], w[1])
		for i := 0; i < 4000; i++ {
			ip := netsim.IP(1<<20 + i*131)
			want := f.Contains(ip) && ip >= w[0] && ip <= w[1]
			if win.Contains(ip) != want {
				t.Fatalf("window [%v,%v] disagrees on %v: got %v, want %v", w[0], w[1], ip, win.Contains(ip), want)
			}
		}
	}
	var nilF *FrozenGreylist
	empty := nilF.Window(0, 10)
	if empty.Contains(netsim.IP(5)) {
		t.Fatal("nil view must window to empty")
	}
}

// TestPlanSharedBitIdentical pins what a census round does with a Plan:
// one per span, read by every vantage point of the round and of the next.
// Each run over the shared plan equals a RunIndexed that plans for itself
// and a RunIndexed on a DisableProbeCache world - statistics, discoveries
// and every sample at its index - on dense, sparse and unordered spans
// with greylisted targets among them. A host the blacklist gains after
// the plan is built is probed by runs over that plan: it is a snapshot.
func TestPlanSharedBitIdentical(t *testing.T) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 3000
	w := netsim.New(cfg)
	cfg.DisableProbeCache = true
	ref := netsim.New(cfg)
	vps := platform.PlanetLab(cities.Default()).VPs()[:8]
	var all []netsim.IP
	w.Prefixes(func(p netsim.Prefix24) {
		if ip, alive := w.Representative(p); alive {
			all = append(all, ip)
		}
	})
	skip := NewGreylist()
	for i := 3; i < len(all); i += 11 {
		skip.Add(all[i], netsim.ReplyAdminFiltered)
	}
	var sparse []netsim.IP
	for i := 0; i < len(all); i += 23 {
		sparse = append(sparse, all[i])
	}
	unordered := append([]netsim.IP{}, all[400:700]...)
	rand.New(rand.NewSource(3)).Shuffle(len(unordered), func(i, j int) { unordered[i], unordered[j] = unordered[j], unordered[i] })

	type result struct {
		stats   Stats
		found   map[netsim.IP]netsim.ReplyKind
		samples map[int]record.Sample
	}
	run := func(f func(sink func(int, record.Sample)) (Stats, *Greylist, error)) result {
		t.Helper()
		r := result{samples: map[int]record.Sample{}}
		st, found, err := f(func(i int, s record.Sample) { r.samples[i] = s })
		if err != nil {
			t.Fatal(err)
		}
		r.stats, r.found = st, found.Snapshot()
		return r
	}
	for name, targets := range map[string][]netsim.IP{"dense": all[1000:1800], "sparse": sparse, "unordered": unordered} {
		plan := NewPlan(w, targets, skip)
		skipped := 0
		for _, ip := range targets {
			if skip.Contains(ip) {
				skipped++
			}
		}
		for round := uint64(1); round <= 2; round++ {
			for _, vp := range vps {
				pcfg := Config{Seed: 7, Round: round}
				shared := run(func(sink func(int, record.Sample)) (Stats, *Greylist, error) { return RunPlan(w, vp, plan, pcfg, sink) })
				single := run(func(sink func(int, record.Sample)) (Stats, *Greylist, error) {
					return RunIndexed(w, vp, targets, skip, pcfg, sink)
				})
				want := run(func(sink func(int, record.Sample)) (Stats, *Greylist, error) {
					return RunIndexed(ref, vp, targets, skip, pcfg, sink)
				})
				if !reflect.DeepEqual(shared, want) || !reflect.DeepEqual(single, want) {
					t.Fatalf("%s, round %d, %s: shared plan %+v, single-use %+v, reference %+v",
						name, round, vp.Name, shared.stats, single.stats, want.stats)
				}
				if skipped == 0 || shared.stats.Sent != len(targets)-skipped {
					t.Fatalf("%s: sent %d of %d targets, %d greylisted", name, shared.stats.Sent, len(targets), skipped)
				}
			}
		}
		snapshot := NewPlan(w, targets, skip)
		for _, ip := range targets {
			if !skip.Contains(ip) {
				skip.Add(ip, netsim.ReplyAdminFiltered)
				break
			}
		}
		for plan, want := range map[*Plan]int{snapshot: len(targets) - skipped, NewPlan(w, targets, skip): len(targets) - skipped - 1} {
			if st, _, err := RunPlan(w, vps[0], plan, Config{Seed: 7, Round: 1}, nil); err != nil || st.Sent != want {
				t.Fatalf("%s: a plan built around %d greylisted targets sent %d probes (err %v), want %d",
					name, len(targets)-want, st.Sent, err, want)
			}
		}
	}
}

// TestRunZeroAllocsPerProbe pins the acceptance criterion that the probing
// inner loop does not allocate per probe: the allocation count of a full
// run is a small constant independent of the target count.
func TestRunZeroAllocsPerProbe(t *testing.T) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 3000
	w := netsim.New(cfg)
	vp := platform.PlanetLab(cities.Default()).VPs()[0]
	var targets []netsim.IP
	w.Prefixes(func(p netsim.Prefix24) {
		if ip, alive := w.Representative(p); alive {
			targets = append(targets, ip)
		}
	})
	skip, err := BuildBlacklist(w, vp, targets, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := func(record.Sample) {}

	runAllocs := func(lo, hi int) float64 {
		sub := targets[lo:hi]
		// Warm the session, the frozen view and the found-map buckets so
		// the measured passes only see steady-state work.
		if _, _, err := Run(w, vp, sub, skip, Config{Seed: 7, Round: 1}, sink); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := Run(w, vp, sub, skip, Config{Seed: 7, Round: 1}, sink); err != nil {
				t.Fatal(err)
			}
		})
	}

	small, large := runAllocs(0, len(targets)/4), runAllocs(0, len(targets))
	// A mid-list span exercises the span-session resolver's windowed
	// path (cursor repositioning, greylist window) under the same budget.
	mid := runAllocs(len(targets)/3, 2*len(targets)/3)
	// The per-run constant covers the stats, permutation, span-slab and
	// greylist objects; what it must NOT do is scale with the probe count.
	if large > small+8 {
		t.Fatalf("allocations scale with target count: %v allocs at n=%d vs %v at n=%d",
			small, len(targets)/4, large, len(targets))
	}
	if large > 24 {
		t.Fatalf("full run allocated %v times; the inner loop must be allocation-free", large)
	}
	if mid > 24 {
		t.Fatalf("mid-list span run allocated %v times; the span path must be allocation-free per probe", mid)
	}
}
