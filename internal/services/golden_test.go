package services

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"

	"anycastmap/internal/asdb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/inventory_digest.golden from this checkout's inventory")

// inventoryDigest is FNV-1a over every AS's service set in registry order:
// presence, DNS over UDP, and each service's port, name, SSL and
// well-known flags and software.
func inventoryDigest(reg *asdb.Registry, inv *Inventory) string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	bit := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	for _, as := range reg.All() {
		u64(uint64(as.ASN))
		s, ok := inv.ByASN(as.ASN)
		bit(ok)
		if !ok {
			continue
		}
		u64(uint64(s.ASN))
		bit(s.ServesDNSOverUDP)
		u64(uint64(s.Len()))
		for _, sv := range s.Services() {
			u64(uint64(sv.Port))
			bit(sv.SSL)
			bit(sv.WellKnown)
			fmt.Fprintf(h, "%s|%s|", sv.Proto, sv.Software)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestInventoryDigestGolden pins every AS's service set at the default
// seed across commits. The committed digest was written at dc862da, before
// the inventory became lazy; a change that means to move the inventory
// rewrites it with
//
//	go test -run TestInventoryDigestGolden ./internal/services -update
func TestInventoryDigestGolden(t *testing.T) {
	const path = "testdata/inventory_digest.golden"
	reg := asdb.Default()
	got := inventoryDigest(reg, Build(reg, 2015))
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("inventory digest %s, golden %s: a service set moved", got, strings.TrimSpace(string(want)))
	}
}

// TestInventoryConcurrentFirstUse races first lookups on one fresh
// inventory: every goroutine must see the sets a lone caller sees (run it
// under -race).
func TestInventoryConcurrentFirstUse(t *testing.T) {
	reg := asdb.Default()
	want := inventoryDigest(reg, Build(reg, 2015))
	inv := Build(reg, 2015)
	const n = 8
	got := make([]string, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts from another AS, so the first call
			// of each asks for a different set.
			all := reg.All()
			inv.ByASN(all[g*len(all)/n].ASN)
			got[g] = inventoryDigest(reg, inv)
		}()
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Errorf("goroutine %d read digest %s, a lone caller %s", g, d, want)
		}
	}
}
