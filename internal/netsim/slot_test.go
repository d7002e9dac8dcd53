package netsim

import (
	"testing"

	"anycastmap/internal/detrand"
)

// refIndex is the per-/24 map index the world kept before it indexed its
// /24s by slot, rebuilt from the deployments and the configuration alone:
// values >= 0 index deployments, values < 0 encode -(unicastIndex+1), with
// unicast indexes handed out in prefix order over every allocated /24 no
// deployment holds. Every slot lookup is held to it.
type refIndex map[Prefix24]int32

func newRefIndex(w *World) refIndex {
	idx := refIndex{}
	for i, d := range w.deployments {
		idx[d.Prefix] = int32(i)
	}
	total := Prefix24(w.Registry.TotalFootprint() + w.cfg.Unicast24s)
	uni := int32(0)
	for p := basePrefix; p < basePrefix+total; p++ {
		if _, anycast := idx[p]; !anycast {
			uni++
			idx[p] = -uni
		}
	}
	return idx
}

func (idx refIndex) deployment(w *World, p Prefix24) (*Deployment, bool) {
	i, ok := idx[p]
	if !ok || i < 0 {
		return nil, false
	}
	return w.deployments[i], true
}

func (idx refIndex) asnOf(w *World, p Prefix24) (int, bool) {
	i, ok := idx[p]
	if !ok {
		return 0, false
	}
	if i >= 0 {
		return w.deployments[i].ASN, true
	}
	return 100000 + int(uint32(p)%30000), true
}

func (idx refIndex) representative(w *World, p Prefix24) (IP, bool) {
	i, ok := idx[p]
	if !ok {
		return 0, false
	}
	if i >= 0 {
		return w.deployments[i].rep, true
	}
	h := &w.unicast[-(i + 1)]
	return h.rep, h.everAlive
}

func (idx refIndex) hostAlive(w *World, ip IP) bool {
	i, ok := idx[ip.Prefix()]
	if !ok {
		return false
	}
	if i < 0 {
		h := &w.unicast[-(i + 1)]
		return h.everAlive && h.rep == ip
	}
	d := w.deployments[i]
	return ip == d.rep || detrand.UnitFloat(w.cfg.Seed, uint64(ip), 0xA11E) < d.Density
}

// planClass is PlanSpan's class and payload for one target of a world
// without hijacks.
func (idx refIndex) planClass(w *World, target IP) (uint8, uint64) {
	i, ok := idx[target.Prefix()]
	switch {
	case !ok:
		return spanTimeout, 0
	case i >= 0:
		if !idx.hostAlive(w, target) {
			return spanTimeout, 0
		}
		return spanAnycast, uint64(i)
	}
	h := &w.unicast[-(i + 1)]
	if target != h.rep {
		return spanTimeout, 0
	}
	switch h.class {
	case classSilent:
		return spanTimeout, 0
	case classAdminFiltered:
		return spanUniAdmin, 0
	case classHostProhibited:
		return spanUniHost, 0
	case classNetProhibited:
		return spanUniNet, 0
	}
	return spanUniEcho, 0
}

// outsidePrefixes are /24s no world allocates: 0.0.0.0/24, the /24 just
// below the first slot, the /24 just past the last, 224.0.0.0/24 and the
// last /24 of the address space.
func outsidePrefixes(w *World) []Prefix24 {
	return []Prefix24{0, basePrefix - 1, basePrefix + Prefix24(w.NumPrefixes()), 0xE00000, 1<<24 - 1}
}

// TestSlotIndexMatchesMap holds every slot lookup - Deployment, IsAnycast,
// ASNOf, Representative, HostAlive and PlanSpan's class - to the map index
// on every allocated /24 of three world shapes and on the /24s just outside
// them, so an off-by-one in the slot arithmetic fails here.
func TestSlotIndexMatchesMap(t *testing.T) {
	for _, shape := range []struct {
		seed     uint64
		unicast  int
		epoch    uint64
		inflated float64
	}{
		{2015, 3000, 0, 1},
		{7, 1, 0, 1},
		{99, 5000, 2, 1.5},
	} {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Unicast24s, cfg.Epoch, cfg.DeploymentInflation = shape.seed, shape.unicast, shape.epoch, shape.inflated
		w := New(cfg)
		ref := newRefIndex(w)
		if len(ref) != w.NumPrefixes() {
			t.Fatalf("seed %d: reference indexes %d /24s, the world allocates %d", shape.seed, len(ref), w.NumPrefixes())
		}

		var prefixes []Prefix24
		w.Prefixes(func(p Prefix24) { prefixes = append(prefixes, p) })
		if len(prefixes) != len(ref) {
			t.Fatalf("seed %d: Prefixes lists %d /24s, want %d", shape.seed, len(prefixes), len(ref))
		}
		for _, p := range prefixes {
			if _, ok := ref[p]; !ok {
				t.Fatalf("seed %d: Prefixes lists %v, which the reference does not allocate", shape.seed, p)
			}
		}
		outside := outsidePrefixes(w)
		for _, p := range outside {
			if _, ok := ref[p]; ok {
				t.Fatalf("seed %d: %v is allocated; it should lie outside the world", shape.seed, p)
			}
		}

		var targets []IP
		for _, p := range append(prefixes, outside...) {
			gotD, gotOK := w.Deployment(p)
			wantD, wantOK := ref.deployment(w, p)
			if gotD != wantD || gotOK != wantOK {
				t.Fatalf("seed %d: Deployment(%v) = %v, %v; want %v, %v", shape.seed, p, gotD, gotOK, wantD, wantOK)
			}
			if got := w.IsAnycast(p); got != wantOK {
				t.Fatalf("seed %d: IsAnycast(%v) = %v, want %v", shape.seed, p, got, wantOK)
			}
			gotASN, gotOK := w.ASNOf(p)
			wantASN, wantOK := ref.asnOf(w, p)
			if gotASN != wantASN || gotOK != wantOK {
				t.Fatalf("seed %d: ASNOf(%v) = %d, %v; want %d, %v", shape.seed, p, gotASN, gotOK, wantASN, wantOK)
			}
			gotRep, gotAlive := w.Representative(p)
			wantRep, wantAlive := ref.representative(w, p)
			if gotRep != wantRep || gotAlive != wantAlive {
				t.Fatalf("seed %d: Representative(%v) = %v, %v; want %v, %v", shape.seed, p, gotRep, gotAlive, wantRep, wantAlive)
			}
			hosts := []IP{p.Host(0), p.Host(1), p.Host(200), p.Host(255)}
			if wantOK {
				hosts = append(hosts, wantRep, wantRep^0x55)
			}
			for _, ip := range hosts {
				if got, want := w.HostAlive(ip), ref.hostAlive(w, ip); got != want {
					t.Fatalf("seed %d: HostAlive(%v) = %v, want %v", shape.seed, ip, got, want)
				}
			}
			targets = append(targets, hosts...)
		}

		plan := w.PlanSpan(targets)
		for i, target := range targets {
			cls, payload := ref.planClass(w, target)
			if plan.cls[i] != cls || (cls == spanAnycast && plan.payload[i] != payload) {
				t.Fatalf("seed %d: PlanSpan target %v: class %d payload %d, want class %d payload %d",
					shape.seed, target, plan.cls[i], plan.payload[i], cls, payload)
			}
		}
	}
}
