package prober

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

var (
	worldOnce sync.Once
	sharedW   *netsim.World
	sharedH   *hitlist.Hitlist
	sharedPL  *platform.Platform
)

func testbed(t *testing.T) (*netsim.World, *hitlist.Hitlist, *platform.Platform) {
	t.Helper()
	worldOnce.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 3000
		sharedW = netsim.New(cfg)
		sharedH = hitlist.FromWorld(sharedW)
		sharedPL = platform.PlanetLab(cities.Default())
	})
	return sharedW, sharedH, sharedPL
}

func TestGreylistBasics(t *testing.T) {
	g := NewGreylist()
	if g.Len() != 0 || g.Contains(netsim.IP(1)) {
		t.Fatal("new greylist not empty")
	}
	g.Add(netsim.IP(1), netsim.ReplyAdminFiltered)
	g.Add(netsim.IP(2), netsim.ReplyHostProhibited)
	g.Add(netsim.IP(1), netsim.ReplyAdminFiltered) // idempotent
	if g.Len() != 2 || !g.Contains(netsim.IP(1)) {
		t.Errorf("greylist state wrong: len=%d", g.Len())
	}
	bd := g.Breakdown()
	if bd[netsim.ReplyAdminFiltered] != 1 || bd[netsim.ReplyHostProhibited] != 1 {
		t.Errorf("breakdown = %v", bd)
	}
	other := NewGreylist()
	other.Add(netsim.IP(3), netsim.ReplyNetProhibited)
	g.Merge(other)
	if g.Len() != 3 {
		t.Errorf("after merge len = %d, want 3", g.Len())
	}
	ts := g.Targets()
	if len(ts) != 3 || !ts[netsim.IP(3)] {
		t.Errorf("Targets() = %v", ts)
	}
}

func TestGreylistConcurrency(t *testing.T) {
	g := NewGreylist()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(netsim.IP(base*1000+j), netsim.ReplyAdminFiltered)
				g.Contains(netsim.IP(j))
			}
		}(i)
	}
	wg.Wait()
	if g.Len() != 8000 {
		t.Errorf("concurrent adds lost entries: %d", g.Len())
	}
}

func TestRunBasics(t *testing.T) {
	w, h, pl := testbed(t)
	vp := pl.VPs()[0]
	targets := h.PruneNeverAlive().Targets()

	var mu sync.Mutex
	var samples []record.Sample
	stats, grey, err := Run(w, vp, targets, nil, Config{Seed: 1, Round: 0}, func(s record.Sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	if stats.Sent != len(targets) {
		t.Errorf("sent %d, want %d", stats.Sent, len(targets))
	}
	if stats.Echo+stats.Errors+stats.Timeouts != stats.Sent {
		t.Error("stats do not add up")
	}
	// On the pruned list, about two thirds of targets answer (plus all
	// the anycast /24s).
	frac := float64(stats.Echo) / float64(stats.Sent)
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("echo fraction = %.2f", frac)
	}
	if stats.Errors == 0 || grey.Len() != stats.Errors {
		t.Errorf("errors=%d greylist=%d", stats.Errors, grey.Len())
	}
	if len(samples) != stats.Echo+stats.Errors {
		t.Errorf("recorded %d samples, want %d", len(samples), stats.Echo+stats.Errors)
	}
	if stats.SourceDropped != 0 {
		t.Errorf("dropped %d replies at the default slow rate, want 0", stats.SourceDropped)
	}
}

func TestRunSkipsGreylist(t *testing.T) {
	w, h, pl := testbed(t)
	vp := pl.VPs()[1]
	targets := h.PruneNeverAlive().Targets()[:500]
	skip := NewGreylist()
	for _, ip := range targets[:100] {
		skip.Add(ip, netsim.ReplyAdminFiltered)
	}
	stats, _, err := Run(w, vp, targets, skip, Config{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 400 {
		t.Errorf("sent %d probes, want 400 after greylist skip", stats.Sent)
	}
}

func TestFastRateDropsReplies(t *testing.T) {
	// The Sec. 3.5 lesson: probing at 10k pps loses replies near the
	// source on many vantage points; 1k pps is safe.
	w, h, pl := testbed(t)
	targets := h.PruneNeverAlive().Targets()
	droppedSomewhere := false
	for _, vp := range pl.VPs()[:12] {
		fast, _, errF := Run(w, vp, targets[:2000], nil, Config{Seed: 1, Rate: 12000}, nil)
		slow, _, errS := Run(w, vp, targets[:2000], nil, Config{Seed: 1, Rate: 1000}, nil)
		if errF != nil || errS != nil {
			t.Fatal(errF, errS)
		}
		if slow.SourceDropped != 0 {
			t.Errorf("%s dropped replies at 1k pps", vp.Name)
		}
		if fast.SourceDropped > 0 {
			droppedSomewhere = true
			if fast.Echo >= slow.Echo {
				t.Errorf("%s: fast echo %d >= slow echo %d despite drops", vp.Name, fast.Echo, slow.Echo)
			}
		}
	}
	if !droppedSomewhere {
		t.Error("no vantage point dropped replies at 12k pps; rate-limit model inert")
	}
}

func TestCompletionTimeScalesWithLoad(t *testing.T) {
	w, h, pl := testbed(t)
	targets := h.PruneNeverAlive().Targets()[:1000]
	var fastVP, slowVP platform.VP
	for _, vp := range pl.VPs() {
		if vp.LoadFactor < 0.7 {
			fastVP = vp
		}
		if vp.LoadFactor > 2.5 {
			slowVP = vp
		}
	}
	if fastVP.Name == "" || slowVP.Name == "" {
		t.Skip("load factor extremes not present in sample")
	}
	fast, _, _ := Run(w, fastVP, targets, nil, Config{Seed: 1}, nil)
	slow, _, _ := Run(w, slowVP, targets, nil, Config{Seed: 1}, nil)
	if fast.Completion >= slow.Completion {
		t.Errorf("loaded host completed faster: %v vs %v", slow.Completion, fast.Completion)
	}
	want := time.Duration(float64(len(targets)) / 1000 * fastVP.LoadFactor * float64(time.Second))
	if fast.Completion != want {
		t.Errorf("completion = %v, want %v", fast.Completion, want)
	}
}

func TestRunDeterministic(t *testing.T) {
	w, h, pl := testbed(t)
	vp := pl.VPs()[2]
	targets := h.PruneNeverAlive().Targets()[:1000]
	s1, g1, _ := Run(w, vp, targets, nil, Config{Seed: 7}, nil)
	s2, g2, _ := Run(w, vp, targets, nil, Config{Seed: 7}, nil)
	if s1 != s2 || g1.Len() != g2.Len() {
		t.Error("identical runs diverged")
	}
}

func TestRunEmptyTargets(t *testing.T) {
	w, _, pl := testbed(t)
	stats, grey, err := Run(w, pl.VPs()[0], nil, nil, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 0 || grey.Len() != 0 {
		t.Error("empty run did something")
	}
}

func TestBuildBlacklist(t *testing.T) {
	w, h, pl := testbed(t)
	targets := h.Targets()
	bl, err := BuildBlacklist(w, pl.VPs()[0], targets, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bl.Len() == 0 {
		t.Fatal("blacklist empty")
	}
	// Sec. 3.3: ~98.5% of the greylist comes from administrative
	// filtering (code 13).
	bd := bl.Breakdown()
	frac := float64(bd[netsim.ReplyAdminFiltered]) / float64(bl.Len())
	if frac < 0.90 {
		t.Errorf("admin-filtered greylist share = %.2f, want ~0.985", frac)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{VP: platform.VP{Name: "x"}, Sent: 1}
	if s.String() == "" {
		t.Error("empty Stats string")
	}
}

func TestGreylistSnapshotRoundTrip(t *testing.T) {
	g := NewGreylist()
	g.Add(netsim.IP(1), netsim.ReplyAdminFiltered)
	g.Add(netsim.IP(2), netsim.ReplyNetProhibited)
	snap := g.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	// Mutating the snapshot must not touch the original.
	snap[netsim.IP(3)] = netsim.ReplyHostProhibited
	if g.Contains(netsim.IP(3)) {
		t.Error("snapshot aliases the greylist")
	}
	// Rebuilt from its entries in address order, as the codecs carry
	// them, the greylist is the snapshot again, and its frozen view is
	// the sorted addresses without a sort.
	back := FromSorted([]netsim.IP{1, 2, 3}, []netsim.ReplyKind{snap[1], snap[2], snap[3]})
	if !reflect.DeepEqual(back.Snapshot(), snap) {
		t.Errorf("rebuilt greylist wrong: %v", back.Snapshot())
	}
	if f := back.Freeze(); f.Len() != 3 || !f.Contains(netsim.IP(2)) || f.Contains(netsim.IP(4)) {
		t.Errorf("rebuilt greylist's frozen view wrong: %v", f.ips)
	}
}

// TestCheckRate holds the one rate check the census command and a fleet
// agent's welcome share: zero (the default) and finite positive rates
// pass; NaN, infinities and negative rates are refused, not probed at the
// default or with NaN completion times.
func TestCheckRate(t *testing.T) {
	for _, rate := range []float64{0, 1, 1000, 12000, math.MaxFloat64} {
		if err := CheckRate(rate); err != nil {
			t.Errorf("CheckRate(%v) = %v, want nil", rate, err)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		if err := CheckRate(rate); err == nil || !strings.Contains(err.Error(), "rate") {
			t.Errorf("CheckRate(%v) = %v, want an error naming the rate", rate, err)
		}
	}
}

// MinRTT keeps each vantage point's smallest echo RTT over the rounds,
// skips what is not an echo - an ICMP error carries an RTT too - and
// drops a vantage point that never answered.
func TestMinRTT(t *testing.T) {
	vps := []platform.VP{{ID: 1, Name: "a"}, {ID: 2, Name: "b"}, {ID: 3, Name: "c"}}
	replies := map[[2]int]netsim.Reply{
		{1, 1}: {Kind: netsim.ReplyEcho, RTT: 30 * time.Millisecond},
		{1, 2}: {Kind: netsim.ReplyAdminFiltered, RTT: time.Millisecond},
		{1, 3}: {Kind: netsim.ReplyEcho, RTT: 20 * time.Millisecond},
		{2, 1}: {Kind: netsim.ReplyAdminFiltered, RTT: time.Millisecond},
		{3, 2}: {Kind: netsim.ReplyEcho, RTT: 5 * time.Millisecond},
		{3, 4}: {Kind: netsim.ReplyEcho, RTT: time.Millisecond}, // past the last round
	}
	probes := 0
	ms := MinRTT(vps, 3, func(vp platform.VP, round uint64) netsim.Reply {
		probes++
		return replies[[2]int{vp.ID, int(round)}]
	})
	if probes != 9 {
		t.Errorf("%d probes, want 3 rounds of 3 vantage points", probes)
	}
	want := []string{"a 20ms", "c 5ms"}
	var got []string
	for _, m := range ms {
		got = append(got, m.VP+" "+m.RTT.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("measurements %v, want %v", got, want)
	}
}
