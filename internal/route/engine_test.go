package route

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"anycastmap/internal/analysis"
	"anycastmap/internal/census"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/store"
)

func TestPolicyNames(t *testing.T) {
	for p := PolicyCatchmentAffine; p < numPolicies; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("round-robin"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestNearestReplica(t *testing.T) {
	// A client in Frankfurt is nearest to the Amsterdam instance.
	e := testEngine(t, testStore(t),
		withLocator(cityLocator(cityLoc(t, "Frankfurt", "DE"))),
		withPolicies(PolicyNearestReplica))
	ans, pol := e.Decide(netsim.Prefix24(0x0b0001))
	if pol != PolicyNearestReplica {
		t.Fatalf("policy = %v", pol)
	}
	if !ans.Anycast || ans.City != "Amsterdam" || ans.Replica != 0 {
		t.Fatalf("answer = %+v", ans)
	}
	if ans.Addr != svcPrefix.Host(1) {
		t.Errorf("addr = %v, want %v", ans.Addr, svcPrefix.Host(1))
	}
	if ans.DistKm < 100 || ans.DistKm > 1000 {
		t.Errorf("Frankfurt-Amsterdam dist = %.0f km", ans.DistKm)
	}
}

func TestCatchmentAffineDiffersFromNearest(t *testing.T) {
	// Instance 0 is located in Tokyo but was isolated by the Ashburn
	// VP; instance 1 is in Amsterdam via the Tokyo VP. A client near
	// Ashburn is geographically nearest to Amsterdam, but its side of
	// the catchment (the Ashburn VP's) reaches the Tokyo replica.
	crossed := []analysis.Finding{mkFinding(t, svcPrefix, 64500, []testReplica{
		{"vp-ash", "Tokyo", "JP"},
		{"vp-tyo", "Amsterdam", "NL"},
	})}
	st := store.New(store.Options{})
	st.Publish(store.NewSnapshot(crossed, nil, 1, 1))
	loc := withLocator(cityLocator(cityLoc(t, "Ashburn", "US")))

	near := testEngine(t, st, loc, withPolicies(PolicyNearestReplica))
	ansN, _ := near.Decide(netsim.Prefix24(0x0b0001))
	if ansN.City != "Amsterdam" {
		t.Fatalf("nearest picked %q, want Amsterdam", ansN.City)
	}

	catch := testEngine(t, st, loc, withPolicies(PolicyCatchmentAffine))
	ansC, pol := catch.Decide(netsim.Prefix24(0x0b0001))
	if pol != PolicyCatchmentAffine || ansC.City != "Tokyo" || ansC.ViaVP != "vp-ash" {
		t.Fatalf("catchment picked %+v via %v", ansC.City, ansC.ViaVP)
	}
}

func TestHealthWeighted(t *testing.T) {
	// Quarantining the Amsterdam instance's VP demotes it: the
	// Frankfurt client lands on the next nearest healthy instance.
	snap := store.NewSnapshot(testFindings(t, 64500), nil, 1, 1)
	snap.SetHealth(census.CampaignHealth{Quarantined: []string{"vp-ams"}})
	st := store.New(store.Options{})
	st.Publish(snap)
	e := testEngine(t, st,
		withLocator(cityLocator(cityLoc(t, "Frankfurt", "DE"))),
		withPolicies(PolicyHealthWeighted, PolicyNearestReplica))
	ans, pol := e.Decide(netsim.Prefix24(0x0b0001))
	if pol != PolicyHealthWeighted {
		t.Fatalf("policy = %v", pol)
	}
	if ans.City != "Ashburn" {
		t.Fatalf("picked %q, want Ashburn (Amsterdam demoted, Tokyo farther)", ans.City)
	}

	// A clean campaign demotes nothing: health-weighted abstains and
	// the chain falls through to nearest-replica.
	clean := testEngine(t, testStore(t),
		withLocator(cityLocator(cityLoc(t, "Frankfurt", "DE"))),
		withPolicies(PolicyHealthWeighted, PolicyNearestReplica))
	ans, pol = clean.Decide(netsim.Prefix24(0x0b0001))
	if pol != PolicyNearestReplica || ans.City != "Amsterdam" {
		t.Fatalf("clean campaign: policy %v, city %q", pol, ans.City)
	}
}

func TestDecidePreferOverride(t *testing.T) {
	e := testEngine(t, testStore(t),
		withLocator(cityLocator(cityLoc(t, "Frankfurt", "DE"))))
	// The default chain decides catchment-affine; preferring
	// nearest-replica must win without reconfiguring the engine.
	_, pol := e.DecideFor(netsim.Prefix24(0x0b0001), svcPrefix, PolicyNearestReplica)
	if pol != PolicyNearestReplica {
		t.Fatalf("prefer override ignored: %v", pol)
	}
}

func TestDecideEdgeCases(t *testing.T) {
	// Empty store: no version, no decision.
	empty, err := NewEngine(Config{Store: store.New(store.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ans, pol := empty.Decide(netsim.Prefix24(0x0b0001))
	if ans.Version != 0 || ans.Anycast || pol != PolicyNone {
		t.Fatalf("empty store: %+v, %v", ans, pol)
	}

	// Unicast prefix: version stamped, not anycast.
	e := testEngine(t, testStore(t))
	ans, pol = e.DecideFor(netsim.Prefix24(0x0b0001), netsim.Prefix24(0xDEAD00), PolicyNone)
	if ans.Version == 0 || ans.Anycast || pol != PolicyNone {
		t.Fatalf("unicast service: %+v, %v", ans, pol)
	}

	// Anycast entry with no enumerated instances: anycast yes,
	// replica no.
	bare := []analysis.Finding{{Prefix: svcPrefix, ASN: 64500, Result: core.Result{Anycast: true}}}
	st := store.New(store.Options{})
	st.Publish(store.NewSnapshot(bare, nil, 1, 1))
	e2 := testEngine(t, st)
	ans, pol = e2.Decide(netsim.Prefix24(0x0b0001))
	if !ans.Anycast || ans.Replica != -1 || pol != PolicyNone {
		t.Fatalf("bare entry: %+v, %v", ans, pol)
	}
}

// TestDecideZeroAllocs pins the tentpole's core claim: a routing
// decision allocates nothing, on heap and mapped snapshots, for every
// policy.
func TestDecideZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *store.Store
	}{{"heap", testStore(t)}, {"mapped", mappedStore(t)}} {
		e := testEngine(t, tc.st)
		client := netsim.Prefix24(0x0b0001)
		for p := PolicyNone; p < numPolicies; p++ {
			e.DecideFor(client, svcPrefix, p) // warm
			got := testing.AllocsPerRun(100, func() {
				e.DecideFor(client, svcPrefix, p)
			})
			if got != 0 {
				t.Errorf("%s/%v: DecideFor = %.1f allocs/op, want 0", tc.name, p, got)
			}
		}
	}
}

// TestDecideDeterministic pins the satellite contract: over a fixed
// world, the full answer set is byte-identical across worker counts and
// across a snapshot built in memory and its twin opened from a file — the
// serving twin of the snapfile parity test.
func TestDecideDeterministic(t *testing.T) {
	fs := testFindings(t, 64500)
	heapSnap := store.NewSnapshot(fs, nil, 1, 1)
	path := filepath.Join(t.TempDir(), "census.snap")
	if err := store.SaveSnapshotFile(path, heapSnap); err != nil {
		t.Fatal(err)
	}
	mapped, err := store.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heapStore := store.New(store.Options{})
	heapStore.Publish(heapSnap)
	mappedStore := store.New(store.Options{})
	mappedStore.Publish(mapped)

	const clients = 512
	digest := func(st *store.Store, workers int) [32]byte {
		e := testEngine(t, st)
		out := make([][]byte, clients)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < clients; i += workers {
					client := netsim.Prefix24(uint32(0x0b0000) + uint32(i))
					var buf []byte
					for p := PolicyNone; p < numPolicies; p++ {
						ans, pol := e.DecideFor(client, svcPrefix, p)
						buf = fmt.Appendf(buf, "%d|%+v|%v\n", p, ans, pol)
					}
					out[i] = buf
				}
			}(w)
		}
		wg.Wait()
		h := sha256.New()
		for _, b := range out {
			h.Write(b)
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		return sum
	}

	want := digest(heapStore, 1)
	for _, workers := range []int{2, 8} {
		if got := digest(heapStore, workers); got != want {
			t.Errorf("heap snapshot: %d workers diverge from 1", workers)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		if got := digest(mappedStore, workers); got != want {
			t.Errorf("mapped snapshot with %d workers diverges from heap", workers)
		}
	}
}

func BenchmarkDecide(b *testing.B) {
	e := testEngine(b, mappedStore(b))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.DecideFor(netsim.Prefix24(uint32(0x0b0000)+uint32(i&1023)), svcPrefix, PolicyNone)
	}
}
