package store

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/asdb"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
)

// mkFindings builds n synthetic findings over consecutive /24s starting at
// base, each with two located replicas.
func mkFindings(t testing.TB, base netsim.Prefix24, n int) []analysis.Finding {
	t.Helper()
	reg := asdb.Default()
	db := cities.Default()
	cf := reg.MustByName("CLOUDFLARENET,US")
	mk := func(name, cc string) core.GeoReplica {
		return core.GeoReplica{VP: "vp-" + name, Located: true, City: db.MustByName(name, cc)}
	}
	fs := make([]analysis.Finding, n)
	for i := range fs {
		fs[i] = analysis.Finding{
			Prefix: base + netsim.Prefix24(i),
			ASN:    cf.ASN,
			Result: core.Result{Anycast: true, Replicas: []core.GeoReplica{
				mk("Amsterdam", "NL"), mk("Tokyo", "JP"),
			}},
		}
	}
	return fs
}

func testSnapshot(t testing.TB, n int) *Snapshot {
	t.Helper()
	base, err := netsim.ParsePrefix24("10.10.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	return NewSnapshot(mkFindings(t, base, n), asdb.Default(), 4, 4)
}

func TestSnapshotPrefixBoundaries(t *testing.T) {
	snap := testSnapshot(t, 8) // 10.10.0.0/24 .. 10.10.7.0/24
	parse := func(s string) netsim.IP {
		ip, err := netsim.ParseIP(s)
		if err != nil {
			t.Fatal(err)
		}
		return ip
	}
	tests := []struct {
		name string
		ip   string
		want bool
	}{
		{"first IP of first /24", "10.10.0.0", true},
		{"last IP of first /24", "10.10.0.255", true},
		{"first IP of last /24", "10.10.7.0", true},
		{"last IP of last /24", "10.10.7.255", true},
		{"middle of an interior /24", "10.10.3.77", true},
		{"one below the range", "10.9.255.255", false},
		{"one above the range", "10.10.8.0", false},
		{"unrelated address", "192.0.2.1", false},
		{"zero address", "0.0.0.0", false},
		{"broadcast-ish extreme", "255.255.255.255", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			e, ok := snap.Lookup(parse(tc.ip))
			if ok != tc.want {
				t.Fatalf("Lookup(%s) anycast = %v, want %v", tc.ip, ok, tc.want)
			}
			if ok && e.Prefix != parse(tc.ip).Prefix() {
				t.Errorf("Lookup(%s) landed on %v", tc.ip, e.Prefix)
			}
			if !ok && e != nil {
				t.Errorf("negative lookup returned an entry")
			}
		})
	}
}

func TestSnapshotCounts(t *testing.T) {
	snap := testSnapshot(t, 5)
	if snap.Len() != 5 {
		t.Errorf("Len = %d, want 5", snap.Len())
	}
	if snap.ASes() != 1 {
		t.Errorf("ASes = %d, want 1", snap.ASes())
	}
	if snap.TotalReplicas() != 10 {
		t.Errorf("TotalReplicas = %d, want 10", snap.TotalReplicas())
	}
	if got := len(snap.Entries()); got != 5 {
		t.Errorf("Entries len = %d", got)
	}
	e := snap.Entries()[0]
	if e.ASName == "" || e.Category == "" || len(e.Cities) != 2 || len(e.Instances) != 2 {
		t.Errorf("entry not fully attributed: %+v", e)
	}
}

func TestStoreLookupAndCacheVersioning(t *testing.T) {
	st := New(Options{})
	ip, _ := netsim.ParseIP("10.10.0.1")

	if ans := st.Lookup(ip); ans.Anycast || ans.Version != 0 {
		t.Fatalf("empty store answered %+v", ans)
	}

	v1 := st.Publish(testSnapshot(t, 4))
	ans := st.Lookup(ip)
	if !ans.Anycast || ans.Version != v1 {
		t.Fatalf("lookup after publish = %+v", ans)
	}

	// A new snapshot answers every later lookup, with its own entry.
	v2 := st.Publish(testSnapshot(t, 4))
	ans2 := st.Lookup(ip)
	if ans2.Version != v2 {
		t.Fatalf("post-swap lookup still served v%d", ans2.Version)
	}
	if ans2.Entry == ans.Entry {
		t.Error("post-swap lookup returned the old snapshot's entry")
	}
	if v2 != v1+1 {
		t.Errorf("versions did not increment: %d -> %d", v1, v2)
	}
}

// TestStoreNegativeCaching: the store remembers no answer, negative ones
// included — an IP the live snapshot does not cover answers unicast, and
// anycast as soon as a snapshot that covers it is published.
func TestStoreNegativeCaching(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 2))
	ip, _ := netsim.ParseIP("10.10.5.9")
	for i := 0; i < 2; i++ {
		if ans := st.Lookup(ip); ans.Anycast || ans.Entry != nil {
			t.Fatalf("uncovered IP answered %+v", ans)
		}
	}
	v := st.Publish(testSnapshot(t, 8))
	if ans := st.Lookup(ip); !ans.Anycast || ans.Version != v {
		t.Fatalf("after a covering snapshot the IP answered %+v, want anycast at v%d", ans, v)
	}
}

// TestSwapReleasesReplacedSnapshot: a published snapshot is reachable from
// the store only while it is live. Each generation answers one lookup of
// an address no later generation is asked about — the pattern under
// which a per-IP answer cache kept every replaced snapshot's entries
// alive — and the live heap after eight generations must stay within
// twice that after one. Generations come from NewSnapshot and from
// snapshot files a Reloader would open.
func TestSwapReleasesReplacedSnapshot(t *testing.T) {
	const entries = 20_000
	path := saveTestSnapshot(t, testSnapshot(t, entries))
	for _, src := range []struct {
		name string
		next func() *Snapshot
	}{
		{"NewSnapshot", func() *Snapshot { return testSnapshot(t, entries) }},
		{"OpenSnapshotFile", func() *Snapshot {
			snap, err := OpenSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}},
	} {
		t.Run(src.name, func(t *testing.T) { checkSwapReleases(t, src.next) })
	}
}

func checkSwapReleases(t *testing.T, next func() *Snapshot) {
	live := func(generations int) uint64 {
		st := New(Options{})
		for g := 0; g < generations; g++ {
			st.Publish(next())
			ip := netsim.IP(0x0A0A0000 + uint32(g)<<8 + 1)
			if ans := st.Lookup(ip); !ans.Anycast {
				t.Fatalf("generation %d: %v answered %+v", g, ip, ans)
			}
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(st)
		return ms.HeapAlloc
	}
	one, eight := live(1), live(8)
	t.Logf("live heap: %.1f MiB after 1 generation, %.1f MiB after 8", float64(one)/(1<<20), float64(eight)/(1<<20))
	if eight >= 2*one {
		t.Fatalf("8 generations hold %.1f MiB live, 1 holds %.1f MiB: replaced snapshots are still reachable",
			float64(eight)/(1<<20), float64(one)/(1<<20))
	}
}

func TestLookupBatchConsistentVersion(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 4))
	var ips []netsim.IP
	for i := 0; i < 64; i++ {
		ips = append(ips, netsim.IP(0x0A0A0000+uint32(i)))
	}
	answers := st.LookupBatch(ips)
	if len(answers) != len(ips) {
		t.Fatalf("got %d answers", len(answers))
	}
	v := answers[0].Version
	for _, a := range answers {
		if a.Version != v {
			t.Fatal("batch spans snapshot versions")
		}
	}
}

// TestConcurrentLookupDuringSwap is the acceptance-criterion race test:
// readers hammer Lookup while swaps land, and every
// answer must be internally consistent (entry matches the IP, version is
// one the store has published). Run under -race.
func TestConcurrentLookupDuringSwap(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 16))

	const readers = 8
	stopReaders := make(chan struct{})
	stopSwapper := make(chan struct{})
	errs := make(chan error, readers+1)

	var readersWg sync.WaitGroup
	for g := 0; g < readers; g++ {
		readersWg.Add(1)
		go func(g int) {
			defer readersWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				ip := netsim.IP(0x0A0A0000 + uint32((g*100000+i)%(16*256)))
				ans := st.Lookup(ip)
				if ans.Version == 0 {
					errs <- fmt.Errorf("reader saw an unpublished store")
					return
				}
				if !ans.Anycast || ans.Entry == nil {
					errs <- fmt.Errorf("in-range IP %v classified unicast", ip)
					return
				}
				if ans.Entry.Prefix != ip.Prefix() {
					errs <- fmt.Errorf("IP %v got entry for %v", ip, ans.Entry.Prefix)
					return
				}
			}
		}(g)
	}

	// Swap continuously while the readers run.
	var swapperWg sync.WaitGroup
	swapperWg.Add(1)
	go func() {
		defer swapperWg.Done()
		for {
			select {
			case <-stopSwapper:
				return
			default:
				st.Publish(testSnapshot(t, 16))
			}
		}
	}()

	// Keep the readers running until at least two swaps have landed
	// underneath them (the initial Publish does not count as a swap), so
	// the test always exercises lookups racing a pointer store — even
	// under -race, where snapshot builds are slow.
	deadline := time.Now().Add(30 * time.Second)
	for st.Stats().Swaps < 2 && time.Now().Before(deadline) && len(errs) == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stopReaders)
	readersWg.Wait()
	close(stopSwapper)
	swapperWg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st.Stats().Swaps < 2 {
		t.Fatalf("only %d swaps landed", st.Stats().Swaps)
	}
}

func TestStoreLookupAfterSwapRefreshesCache(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 4))
	ip, _ := netsim.ParseIP("10.10.2.7")
	if ans := st.Lookup(ip); ans.Version != 1 {
		t.Fatalf("first lookup version %d", ans.Version)
	}
	st.Publish(testSnapshot(t, 4))
	for i := 0; i < 2; i++ {
		if ans := st.Lookup(ip); ans.Version != 2 || !ans.Anycast {
			t.Fatalf("post-swap lookup %d answered %+v, want anycast at v2", i, ans)
		}
	}
}
