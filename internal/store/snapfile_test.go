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

	opened, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}

	// The opened file is its NewSnapshot twin bar the clock reading a
	// file cannot carry: time.Now's monotonic part.
	if !opened.BuiltAt().Equal(heap.BuiltAt()) {
		t.Errorf("builtAt mismatch: %v vs %v", opened.BuiltAt(), heap.BuiltAt())
	}
	twin := *heap
	twin.builtAt = opened.builtAt
	if !reflect.DeepEqual(*opened, twin) {
		t.Errorf("opened snapshot differs from its heap twin:\n opened %+v\n heap   %+v", *opened, twin)
	}
	for i, want := range heap.Entries() {
		got, ok := opened.LookupPrefix(want.Prefix)
		if !ok || !reflect.DeepEqual(*got, want) {
			t.Fatalf("entry %d: LookupPrefix(%v) = %+v, %v, want %+v", i, want.Prefix, got, ok, want)
		}
	}
	if _, ok := opened.LookupPrefix(netsim.Prefix24(1)); ok {
		t.Errorf("opened snapshot claims a prefix it never indexed")
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
		_, err := OpenSnapshotFile(path)
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
// snapshots opened from one file hot-swap underneath; every lookup of an
// indexed prefix answers anycast from a whole snapshot. Run under -race.
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
					if n := len(st.Current().Entries()); n != len(prefixes) {
						t.Errorf("Entries() = %d entries, want %d", n, len(prefixes))
					}
				}
			}
		}(r * 7)
	}

	// 24 hot swaps, each a fresh open of the same file.
	for i := 0; i < 24; i++ {
		next, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		st.Publish(next)
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotFileEmpty(t *testing.T) {
	empty := NewSnapshot(nil, nil, 9, 2)
	path := saveTestSnapshot(t, empty)
	opened, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile(empty): %v", err)
	}
	if opened.Len() != 0 || opened.Round() != 9 || opened.Rounds() != 2 {
		t.Errorf("empty snapshot roundtrip: len %d round %d/%d", opened.Len(), opened.Round(), opened.Rounds())
	}
	if _, ok := opened.Lookup(netsim.IP(0x08080808)); ok {
		t.Errorf("empty snapshot answered anycast")
	}
	if n := len(opened.Entries()); n != 0 {
		t.Errorf("empty snapshot Entries() = %d", n)
	}

	st := New(Options{})
	st.Publish(opened)
	if ans := st.Lookup(netsim.IP(0x01010101)); ans.Anycast {
		t.Errorf("store over empty snapshot answered anycast")
	}
}

func BenchmarkSnapshotLookup(b *testing.B) {
	base, err := netsim.ParsePrefix24("10.10.0.0/24")
	if err != nil {
		b.Fatal(err)
	}
	snap := testSnapshot(b, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := base + netsim.Prefix24(i%4096)
		if _, ok := snap.LookupPrefix(p); !ok {
			b.Fatalf("miss at %v", p)
		}
	}
}
