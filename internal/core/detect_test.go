package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/geo"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// pool is a set of vantage points with their pairwise distance matrix,
// what the census hands the kernel.
type pool struct {
	vps []platform.VP
	km  []float64 // row-major, stride len(vps)
}

func newPool(vps []platform.VP) *pool {
	n := len(vps)
	p := &pool{vps: vps, km: make([]float64, n*n)}
	for i := range vps {
		for j := i + 1; j < n; j++ {
			d := geo.DistanceKm(vps[i].Loc, vps[j].Loc)
			p.km[i*n+j], p.km[j*n+i] = d, d
		}
	}
	return p
}

// vpPool is every PlanetLab host plus as many RIPE-like probes.
var vpPool = sync.OnceValue(func() *pool {
	pl := platform.PlanetLab(db).VPs()
	return newPool(append(pl, platform.RIPEAtlas(db).Sample(len(pl), 3)...))
})

// disks draws n vantage points and the disks a census would measure from
// them toward a service with the given number of hosts, each in some city:
// a VP hears its nearest host, at a whole-microsecond RTT. The oracle is
// the pool's matrix.
func (p *pool) disks(r *rand.Rand, n, hosts int) ([]geo.Disk, CenterDist) {
	idx := r.Perm(len(p.vps))[:n]
	locs := make([]geo.Coord, hosts)
	for h := range locs {
		locs[h] = db.All()[r.Intn(len(db.All()))].Loc
	}
	disks := make([]geo.Disk, n)
	for i, v := range idx {
		km := math.Inf(1)
		for _, h := range locs {
			km = min(km, geo.DistanceKm(p.vps[v].Loc, h))
		}
		ms := 2*km/geo.FiberSpeedKmPerMs*(1+0.6*r.Float64()) + 0.2 + 3*r.Float64()
		disks[i] = geo.DiskFromRTT(p.vps[v].Loc, time.Duration(ms*1000)*time.Microsecond)
	}
	stride := len(p.vps)
	return disks, func(i, j int) float64 { return p.km[idx[i]*stride+idx[j]] }
}

func liveDist(disks []geo.Disk) CenterDist {
	return func(i, j int) float64 { return geo.DistanceKm(disks[i].Center, disks[j].Center) }
}

// Fuzz input: records of a mode byte and three little-endian float64s.
const fuzzRecord = 25

const (
	fuzzRadius = iota // value is the radius in km
	fuzzSlack         // value is added to the distance from disk 0's center: how deep that center lies in this disk
	fuzzRTT           // value's low bits are a whole-microsecond RTT
	fuzzModes
)

func fuzzDisk(mode byte, lat, lon, value float64) []byte {
	rec := make([]byte, fuzzRecord)
	rec[0] = mode
	for i, v := range []float64{lat, lon, value} {
		binary.LittleEndian.PutUint64(rec[1+8*i:], math.Float64bits(v))
	}
	return rec
}

func fuzzRTTDisk(lat, lon float64, us uint64) []byte {
	return fuzzDisk(fuzzRTT, lat, lon, math.Float64frombits(us))
}

// fuzzDisks decodes at most 64 disks with legal centers and radii in
// [0, MaxSurfaceDistanceKm], as DiskFromRTT produces them.
func fuzzDisks(data []byte) []geo.Disk {
	clamp := func(v, lim float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return max(-lim, min(lim, v))
	}
	var disks []geo.Disk
	for ; len(data) >= fuzzRecord && len(disks) < 64; data = data[fuzzRecord:] {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:])) }
		d := geo.Disk{Center: geo.Coord{Lat: clamp(f(0), 90), Lon: clamp(f(1), 180)}}
		switch data[0] % fuzzModes {
		case fuzzRadius:
			d.RadiusKm = math.Abs(clamp(f(2), geo.MaxSurfaceDistanceKm))
		case fuzzSlack:
			if len(disks) > 0 {
				d.RadiusKm = geo.DistanceKm(d.Center, disks[0].Center)
			}
			d.RadiusKm = max(0, min(geo.MaxSurfaceDistanceKm, d.RadiusKm+clamp(f(2), 2*geo.ContainMarginKm)))
		case fuzzRTT:
			us := binary.LittleEndian.Uint64(data[17:]) % 400_000
			d.RadiusKm = geo.DiskRadiusKm(time.Duration(us) * time.Microsecond)
		}
		disks = append(disks, d)
	}
	return disks
}

// FuzzDetect holds the split scan, through both adapters' entry points, to
// the reference scan it replaced, and a conclusive revalidation of its
// certificate to the same verdict.
func FuzzDetect(f *testing.F) {
	join := func(recs ...[]byte) (out []byte) {
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	// Whole-microsecond RTTs with tied radii, the smallest included.
	f.Add(join(fuzzRTTDisk(48.8, 2.3, 9_000), fuzzRTTDisk(51.5, -0.1, 9_000), fuzzRTTDisk(40.7, -74, 9_000), fuzzRTTDisk(35.7, 139.7, 9_000), fuzzRTTDisk(-33.9, 151.2, 80_000)))
	// Two and three disks.
	f.Add(join(fuzzDisk(fuzzRadius, 10, 20, 300), fuzzDisk(fuzzRadius, 10, 30, 700)))
	f.Add(join(fuzzDisk(fuzzRadius, 10, 20, 300), fuzzDisk(fuzzRadius, 10, 30, 800), fuzzDisk(fuzzRadius, 10, 10, 795)))
	// Triples whose outer disks hold the smallest disk's center by a
	// slack inside the windows of the two constants: around the overlap
	// epsilon, around zero and around the containment margin.
	m := geo.ContainMarginKm
	for _, slack := range []float64{-2e-9, -1e-9, -5e-10, 0, 5e-10, 1e-9, 2e-9, m - 1e-9, m, m + 1e-9, m / 2} {
		f.Add(join(fuzzDisk(fuzzRadius, 10, 20, 5), fuzzDisk(fuzzSlack, 10, 27, slack), fuzzDisk(fuzzSlack, 10, 12, -slack)))
		f.Add(join(fuzzDisk(fuzzRadius, 10, 20, 0), fuzzDisk(fuzzSlack, 10, 27, slack), fuzzDisk(fuzzSlack, 14, 20, slack)))
	}
	// Zero radii, on one point and apart.
	f.Add(join(fuzzDisk(fuzzRadius, 1, 1, 0), fuzzDisk(fuzzRadius, 1, 1, 0), fuzzDisk(fuzzRadius, 1, 1, 0)))
	f.Add(join(fuzzDisk(fuzzRadius, 1, 1, 0), fuzzDisk(fuzzRadius, 1, 2, 0), fuzzDisk(fuzzRadius, 50, 2, 9000)))
	// Every radius clamped to half the circumference, antipodal centers.
	f.Add(join(fuzzDisk(fuzzRadius, 30, 40, 1e9), fuzzDisk(fuzzRadius, -30, -140, 1e9), fuzzRTTDisk(0, 0, 399_999)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		disks := fuzzDisks(data)
		live := liveDist(disks)
		_, _, want := firstDisjointPair(disks, live)
		for _, dist := range []CenterDist{nil, live} {
			cert := DetectCert(disks, dist)
			if cert.Anycast() != want || (want && disks[cert.I].Overlaps(disks[cert.J])) {
				t.Fatalf("DetectCert = %+v, reference scan anycast = %v, on %v", cert, want, disks)
			}
			if anycast, ok := cert.Revalidate(disks, dist); ok && anycast != want {
				t.Fatalf("certificate %+v revalidates to anycast = %v, reference scan %v, on %v", cert, anycast, want, disks)
			}
		}
	})
}

// TestEnumerateFallbackPair pins the single-disk-MIS fallback: the greedy
// set is the one small disk everything overlaps, no city lies in it to
// collapse it onto, and the replicas reported are the reference scan's
// first disjoint pair in order of radius — not the first by index, and not
// whichever pair the split scan certified.
func TestEnumerateFallbackPair(t *testing.T) {
	at := func(name string, lon, km float64) Measurement {
		rtt := time.Duration(2 * km / geo.FiberSpeedKmPerMs * float64(time.Millisecond))
		return Measurement{VP: name, VPLoc: geo.Coord{Lat: -48, Lon: lon}, RTT: rtt}
	}
	// On the 48th parallel south, mid Pacific: 1 degree of longitude is
	// 74.4 km. hub overlaps all; west1, west2 and east reach it from
	// either side; both wests are disjoint from east.
	ms := []Measurement{
		at("west2", -132, 600), at("hub", -120, 300), at("east", -108, 640), at("west1", -131, 590),
	}
	if _, ok := db.LargestInDisk(ms[1].Disk()); ok {
		t.Fatal("fixture broken: a city lies in the hub's disk")
	}
	if mis := MISGreedy(disksOf(ms)); len(mis) != 1 || mis[0] != 1 {
		t.Fatalf("fixture broken: greedy set %v, want the hub alone", mis)
	}
	res := Analyze(db, ms, Options{})
	if !res.Anycast || len(res.Replicas) != 2 || res.Replicas[0].VP != "west1" || res.Replicas[1].VP != "east" {
		t.Fatalf("fallback reported %v, want west1 then east", res.Replicas)
	}
}

// detectCases are a simulated census's disk sets at one platform size,
// sorted by how the kernel decides them.
type detectCases struct {
	*pool
	byClass map[string][]detectCase
}

type detectCase struct {
	radii []float64
	slots []int
}

// censusCases probes a small world from n vantage points (RIPE-like
// probes, cloned around their cities beyond the platform's thousand) and
// keeps up to 64 targets of each class.
func censusCases(n int) detectCases {
	var vps []platform.VP
	if n == 261 {
		vps = platform.PlanetLab(db).Sample(n, 2016)
	} else {
		vps = platform.RIPEAtlas(db).Sample(n, 2016)
		for i := 0; len(vps) < n; i++ {
			vp := vps[i]
			vp.ID, vp.Loc = 10_000+i, geo.Destination(vp.City.Loc, float64(i*37%360), 5+float64(i%20))
			vps = append(vps, vp)
		}
	}
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 1200
	w := netsim.New(cfg)
	cs := detectCases{pool: newPool(vps), byClass: map[string][]detectCase{}}
	s := cs.scan()
	targets := hitlist.FromWorld(w).PruneNeverAlive().Targets()
	for step := 0; step < 2; step++ { // anycast /24s sort first: sample both ends
		for k := 0; k < 400 && k < len(targets); k++ {
			ip := targets[k]
			if step == 1 {
				ip = targets[len(targets)-1-k]
			}
			c := detectCase{}
			for v, vp := range vps {
				if reply := w.ProbeICMP(vp, ip, 1); reply.OK() {
					c.radii = append(c.radii, geo.DiskRadiusKm(reply.RTT.Truncate(time.Microsecond)))
					c.slots = append(c.slots, v)
				}
			}
			if len(c.radii) < 2 {
				continue
			}
			*s = Scan{Row: s.Row, Radii: c.radii, Slots: c.slots}
			class := "anycast"
			if !s.Detect().Anycast() {
				class = map[bool]string{true: "witness", false: "split"}[s.Witness == 1]
			}
			if len(cs.byClass[class]) < 64 {
				cs.byClass[class] = append(cs.byClass[class], c)
			}
		}
	}
	return cs
}

func (p *pool) scan() *Scan {
	n := len(p.vps)
	return &Scan{Row: func(slot int) []float64 { return p.km[slot*n : (slot+1)*n] }}
}

// BenchmarkDetect is the kernel's cost per verdict on the analyzer's
// shape — matrix rows, per-worker scratch — by how the target is decided:
// the O(n) witness, the split scan's F x all, or a disjoint pair. 261 and
// 400 vantage points are the benchmark's census-wide and census-dense;
// 2,000 is RIPE Atlas scale, where the paper's Fig. 5 sits.
func BenchmarkDetect(b *testing.B) {
	for _, n := range []int{261, 400, 2000} {
		cs := censusCases(n)
		for _, class := range []string{"witness", "split", "anycast"} {
			cases := cs.byClass[class]
			b.Run(fmt.Sprintf("%s/%dVPs", class, n), func(b *testing.B) {
				if len(cases) == 0 {
					b.Skip("the simulated census drew no such target")
				}
				s := cs.scan()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := cases[i%len(cases)]
					s.Radii, s.Slots = c.radii, c.slots
					if s.Detect().Anycast() != (class == "anycast") {
						b.Fatal("verdict changed")
					}
				}
				b.ReportMetric(float64(s.PairTests)/float64(b.N), "pairtests/op")
			})
		}
	}
}
