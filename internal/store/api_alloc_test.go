package store

import (
	"testing"

	"anycastmap/internal/netsim"
)

// TestLookupResponseAllocs pins the single-lookup render path's
// allocation budget: one allocation per answer (the IP string the JSON
// shape requires), independent of how many instances the entry carries.
// The pre-pool shape heap-allocated a trimmed Entry copy per request.
func TestLookupResponseAllocs(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 8))
	ans := st.Lookup(netsim.Prefix24(0x0a0a01).Host(7))
	if !ans.Anycast || ans.Entry == nil {
		t.Fatal("expected an anycast answer")
	}

	sc := &lookupScratch{}
	sc.fill(ans, false) // warm
	got := testing.AllocsPerRun(100, func() {
		sc.fill(ans, false)
	})
	if got > 1 {
		t.Errorf("lookupScratch.fill(withInstances=false) = %.1f allocs/op, want <= 1", got)
	}

	// The budget must not scale with the entry's instance count.
	big := NewSnapshot(mkFindings(t, netsim.Prefix24(0x0a0a00), 1), nil, 1, 1)
	e, ok := big.LookupPrefix(netsim.Prefix24(0x0a0a00))
	if !ok {
		t.Fatal("big snapshot lookup failed")
	}
	for len(e.Instances) < 64 {
		e.Instances = append(e.Instances, e.Instances[0])
	}
	bigAns := Answer{IP: netsim.Prefix24(0x0a0a00).Host(1), Anycast: true, Entry: e, Version: 1}
	sc.fill(bigAns, false)
	if got := testing.AllocsPerRun(100, func() { sc.fill(bigAns, false) }); got > 1 {
		t.Errorf("fill over a 64-instance entry = %.1f allocs/op, want <= 1", got)
	}
}

func BenchmarkLookupResponse(b *testing.B) {
	st := New(Options{})
	st.Publish(testSnapshot(b, 8))
	ans := st.Lookup(netsim.Prefix24(0x0a0a01).Host(7))
	sc := &lookupScratch{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.fill(ans, false)
	}
}
