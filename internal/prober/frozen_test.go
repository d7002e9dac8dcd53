package prober

import (
	"testing"

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
