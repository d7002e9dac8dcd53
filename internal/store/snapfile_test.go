package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
)

func saveTestSnapshot(t *testing.T, snap *Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "census.snap")
	if err := SaveSnapshotFile(path, snap); err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	return path
}

func TestSnapshotFileRoundtrip(t *testing.T) {
	heap := testSnapshot(t, 64)
	heap.SetHealth(census.CampaignHealth{
		Rounds: 4, VPRuns: 1044, Completed: 1040, Retries: 7, Recovered: 3,
		Quarantined: []string{"vp-ams-3", "vp-nrt-1"}, PartialRows: 1, EmptyRows: 1,
	})
	path := saveTestSnapshot(t, heap)

	mapped, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	defer mapped.Close()

	if mapped.Len() != heap.Len() || mapped.ASes() != heap.ASes() ||
		mapped.TotalReplicas() != heap.TotalReplicas() ||
		mapped.Round() != heap.Round() || mapped.Rounds() != heap.Rounds() {
		t.Errorf("metadata mismatch: mapped {len %d ases %d replicas %d round %d/%d}, heap {len %d ases %d replicas %d round %d/%d}",
			mapped.Len(), mapped.ASes(), mapped.TotalReplicas(), mapped.Round(), mapped.Rounds(),
			heap.Len(), heap.ASes(), heap.TotalReplicas(), heap.Round(), heap.Rounds())
	}
	if !mapped.BuiltAt().Equal(heap.BuiltAt()) {
		t.Errorf("builtAt mismatch: %v vs %v", mapped.BuiltAt(), heap.BuiltAt())
	}
	if !reflect.DeepEqual(mapped.Health(), heap.Health()) {
		t.Errorf("health mismatch:\n mapped %+v\n heap   %+v", mapped.Health(), heap.Health())
	}

	// Every entry must decode identically, via both the lazy single-entry
	// path and the bulk Entries path.
	for i, want := range heap.Entries() {
		got, ok := mapped.LookupPrefix(want.Prefix)
		if !ok {
			t.Fatalf("mapped snapshot misses prefix %v", want.Prefix)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("entry %d mismatch:\n mapped %+v\n heap   %+v", i, *got, want)
		}
	}
	if !reflect.DeepEqual(mapped.Entries(), heap.Entries()) {
		t.Errorf("bulk Entries diverge from heap snapshot")
	}
	if d := mapped.DecodeErrors(); d != 0 {
		t.Errorf("DecodeErrors = %d after clean roundtrip", d)
	}
	if _, ok := mapped.LookupPrefix(netsim.Prefix24(1)); ok {
		t.Errorf("mapped snapshot claims a prefix it never indexed")
	}
}

func TestSnapshotFileWriteDeterministic(t *testing.T) {
	snap := testSnapshot(t, 16)
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteSnapshot is not deterministic for the same snapshot")
	}
}

// TestSnapshotFileRejectsCorrupt pins the promise that a damaged file is
// rejected at open time — before any hot-swap could publish it — rather
// than surfacing as crashes or garbage answers later.
func TestSnapshotFileRejectsCorrupt(t *testing.T) {
	snap := testSnapshot(t, 12)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	open := func(name string, b []byte) error {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSnapshotFile(path)
		if err == nil {
			s.Close()
		}
		return err
	}

	mutate := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mut(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty file", nil},
		{"shorter than header", good[:snapHeaderLen-1]},
		{"truncated mid-payload", good[:len(good)/2]},
		{"truncated by one byte", good[:len(good)-1]},
		{"one trailing byte", append(append([]byte(nil), good...), 0)},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"future version", mutate(func(b []byte) []byte { b[8] = 99; return b })},
		{"payload bit flip", mutate(func(b []byte) []byte { b[snapHeaderLen+5] ^= 0x10; return b })},
		{"entry blob bit flip", mutate(func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b })},
		{"inflated entry count", mutate(func(b []byte) []byte { b[12]++; return b })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := open("bad.snap", tc.data); err == nil {
				t.Fatal("corrupt snapshot file opened without error")
			}
		})
	}

	// The happy path still opens after all that mutation of copies.
	if err := open("good.snap", good); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestSnapshotFileSwapUnderReaders hammers a store with lookups while
// mapped snapshots hot-swap underneath; each replaced mapping must survive
// until its last in-flight reader releases it and unmap afterwards. Run
// under -race this doubles as the use-after-unmap detector.
func TestSnapshotFileSwapUnderReaders(t *testing.T) {
	snap := testSnapshot(t, 48)
	path := saveTestSnapshot(t, snap)
	first, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}

	st := New(Options{})
	st.Publish(first)

	prefixes := make([]netsim.IP, 0, snap.Len())
	for _, e := range snap.Entries() {
		prefixes = append(prefixes, netsim.IP(uint32(e.Prefix)<<8|7))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ip := prefixes[(i+seed)%len(prefixes)]
				if ans := st.Lookup(ip); !ans.Anycast {
					t.Errorf("lookup of indexed prefix answered unicast")
					return
				}
				if i%16 == 0 {
					for _, ans := range st.LookupBatch(prefixes[:8]) {
						if !ans.Anycast {
							t.Errorf("batch lookup of indexed prefix answered unicast")
							return
						}
					}
				}
				if i%64 == 0 {
					cur, release := st.Acquire()
					if n := len(cur.Entries()); n != len(prefixes) {
						t.Errorf("Entries() = %d entries, want %d", n, len(prefixes))
					}
					release()
				}
			}
		}(r * 7)
	}

	// 24 hot swaps, each a fresh mapping of the same file. Publish closes
	// the predecessor, whose pages must outlive its in-flight readers.
	swapped := make([]*Snapshot, 0, 24)
	for i := 0; i < 24; i++ {
		next, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		swapped = append(swapped, st.Current())
		st.Publish(next)
	}
	close(stop)
	wg.Wait()

	for i, old := range swapped {
		if refs := old.m.refs.Load(); refs != 0 {
			t.Errorf("replaced snapshot %d still holds %d mapping refs", i, refs)
		}
	}
	if live := st.Current(); live.m.refs.Load() <= 0 {
		t.Errorf("live snapshot lost its owner reference")
	}
}

func TestSnapshotFileEmpty(t *testing.T) {
	empty := NewSnapshot(nil, nil, 9, 2)
	path := saveTestSnapshot(t, empty)
	mapped, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile(empty): %v", err)
	}
	defer mapped.Close()
	if mapped.Len() != 0 || mapped.Round() != 9 || mapped.Rounds() != 2 {
		t.Errorf("empty snapshot roundtrip: len %d round %d/%d", mapped.Len(), mapped.Round(), mapped.Rounds())
	}
	if _, ok := mapped.Lookup(netsim.IP(0x08080808)); ok {
		t.Errorf("empty snapshot answered anycast")
	}
	if n := len(mapped.Entries()); n != 0 {
		t.Errorf("empty snapshot Entries() = %d", n)
	}

	st := New(Options{})
	st.Publish(mapped)
	if ans := st.Lookup(netsim.IP(0x01010101)); ans.Anycast {
		t.Errorf("store over empty snapshot answered anycast")
	}
}

func benchmarkSnapshotLookup(b *testing.B, mapped bool) {
	base, err := netsim.ParsePrefix24("10.10.0.0/24")
	if err != nil {
		b.Fatal(err)
	}
	snap := testSnapshot(b, 4096)
	if mapped {
		path := filepath.Join(b.TempDir(), "census.snap")
		if err := SaveSnapshotFile(path, snap); err != nil {
			b.Fatal(err)
		}
		if snap, err = OpenSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
		defer snap.Close()
		// Steady-state serving: the lazy cache is warm after first touch.
		for i := 0; i < 4096; i++ {
			snap.LookupPrefix(base + netsim.Prefix24(i))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base + netsim.Prefix24(i%4096)
		if _, ok := snap.LookupPrefix(p); !ok {
			b.Fatalf("miss at %v", p)
		}
	}
}

func BenchmarkSnapshotLookupHeap(b *testing.B)   { benchmarkSnapshotLookup(b, false) }
func BenchmarkSnapshotLookupMapped(b *testing.B) { benchmarkSnapshotLookup(b, true) }
