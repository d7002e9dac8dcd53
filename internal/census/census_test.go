package census

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// The integration testbed: a small world probed by a subset of PlanetLab.
var (
	tbOnce sync.Once
	tbW    *netsim.World
	tbH    *hitlist.Hitlist
	tbVPs  []platform.VP
	tbRun1 *Run
	tbRun2 *Run
)

// execute runs the whole-round reference to completion.
func execute(w *netsim.World, vps []platform.VP, h *hitlist.Hitlist, blacklist *prober.Greylist, round uint64, cfg Config) *Run {
	run, _ := ExecuteContext(context.Background(), w, vps, h, blacklist, round, cfg)
	return run
}

func testbed(t *testing.T) (*netsim.World, *hitlist.Hitlist, []platform.VP, *Run, *Run) {
	t.Helper()
	tbOnce.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 6000
		tbW = netsim.New(cfg)
		tbH = hitlist.FromWorld(tbW).PruneNeverAlive()
		pl := platform.PlanetLab(cities.Default())
		tbVPs = pl.Sample(160, 1)
		tbRun1 = execute(tbW, tbVPs, tbH, nil, 1, Config{Seed: 9})
		tbRun2 = execute(tbW, pl.Sample(150, 2), tbH, nil, 2, Config{Seed: 9})
	})
	return tbW, tbH, tbVPs, tbRun1, tbRun2
}

func TestExecuteShape(t *testing.T) {
	_, h, vps, run, _ := testbed(t)
	if len(run.RTTus) != len(vps) || len(run.Stats) != len(vps) {
		t.Fatal("matrix shape mismatch")
	}
	if len(run.Targets) != h.Len() {
		t.Fatal("target list mismatch")
	}
	for v := range vps {
		if len(run.RTTus[v]) != len(run.Targets) {
			t.Fatal("row length mismatch")
		}
		if run.Stats[v].Sent != len(run.Targets) {
			t.Errorf("VP %d sent %d probes, want %d", v, run.Stats[v].Sent, len(run.Targets))
		}
		if run.Stats[v].Completion <= 0 {
			t.Errorf("VP %d completed in %v", v, run.Stats[v].Completion)
		}
	}
	if run.TotalProbes() != len(vps)*len(run.Targets) {
		t.Error("TotalProbes mismatch")
	}
}

func TestEchoTargetsFraction(t *testing.T) {
	_, _, _, run, _ := testbed(t)
	frac := float64(run.EchoTargets()) / float64(len(run.Targets))
	// On the pruned hitlist ~2/3 of unicast targets respond, plus all
	// anycast; the testbed world is ~22% anycast.
	if frac < 0.6 || frac > 0.95 {
		t.Errorf("echo target fraction = %.2f", frac)
	}
}

func TestGreylistPopulated(t *testing.T) {
	_, _, _, run, _ := testbed(t)
	if run.Greylist.Len() == 0 {
		t.Fatal("census saw no greylistable errors")
	}
	bd := run.Greylist.Breakdown()
	if bd[netsim.ReplyAdminFiltered] == 0 {
		t.Error("no admin-filtered entries")
	}
}

func TestCombine(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)
	c, err := Combine(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds != 2 {
		t.Error("rounds not counted")
	}
	// The union has at least as many VPs as the larger census.
	if len(c.VPs) < len(r1.VPs) || len(c.VPs) < len(r2.VPs) {
		t.Errorf("combined VPs = %d", len(c.VPs))
	}
	// No duplicate VP identities.
	seen := map[int]bool{}
	for _, vp := range c.VPs {
		if seen[vp.ID] {
			t.Fatal("duplicate VP in combination")
		}
		seen[vp.ID] = true
	}
	// Per (shared VP, target): combined RTT = min of the two runs.
	idx2 := map[int]int{}
	for vi, vp := range r2.VPs {
		idx2[vp.ID] = vi
	}
	checked := 0
	for ci, vp := range c.VPs {
		v1 := -1
		for vi, v := range r1.VPs {
			if v.ID == vp.ID {
				v1 = vi
				break
			}
		}
		v2, in2 := idx2[vp.ID]
		if v1 < 0 || !in2 {
			continue
		}
		for tix := 0; tix < len(c.Targets); tix += 97 {
			a, b := r1.RTTus[v1][tix], r2.RTTus[v2][tix]
			want := a
			if b >= 0 && (want < 0 || b < want) {
				want = b
			}
			if got := c.RTTus[ci][tix]; got != want {
				t.Fatalf("combined[%d][%d] = %d, want min(%d,%d)", ci, tix, got, a, b)
			}
			checked++
		}
		if checked > 500 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no shared VPs between the two censuses (sampling too disjoint)")
	}
}

func TestCombineErrors(t *testing.T) {
	if _, err := Combine(); err == nil {
		t.Error("empty combine should fail")
	}
	_, _, _, r1, _ := testbed(t)
	bad := &Run{Targets: r1.Targets[:1]}
	if _, err := Combine(r1, bad); err == nil {
		t.Error("mismatched target lists should fail")
	}
}

func TestAnalyzeAllNoFalsePositives(t *testing.T) {
	// The RTT model guarantees every disk contains the answering host, so
	// unicast targets can never exhibit a speed-of-light violation:
	// detection precision must be 1.
	w, _, _, r1, r2 := testbed(t)
	c, _ := Combine(r1, r2)
	outcomes := AnalyzeAll(cities.Default(), c, core.Options{}, 2, 0)
	for _, o := range outcomes {
		if !w.IsAnycast(o.Prefix()) {
			t.Fatalf("false positive: %v detected as anycast (%d replicas)", o.Prefix(), o.Result.Count())
		}
		if o.Result.Count() < 2 {
			t.Fatalf("%v: anycast outcome with %d replicas", o.Prefix(), o.Result.Count())
		}
	}
}

func TestAnalyzeAllRecall(t *testing.T) {
	w, _, _, r1, r2 := testbed(t)
	c, _ := Combine(r1, r2)
	outcomes := AnalyzeAll(cities.Default(), c, core.Options{}, 2, 0)
	detected := map[netsim.Prefix24]bool{}
	for _, o := range outcomes {
		detected[o.Prefix()] = true
	}
	recall := float64(len(detected)) / float64(len(w.Deployments()))
	if recall < 0.5 {
		t.Errorf("census recall = %.2f (%d of %d), want >= 0.5",
			recall, len(detected), len(w.Deployments()))
	}
	t.Logf("recall = %.3f (%d of %d anycast /24s)", recall, len(detected), len(w.Deployments()))
}

func TestCombinationIncreasesRecall(t *testing.T) {
	// Fig. 12: combining censuses detects more anycast /24s than a single
	// census (more VPs, sharper minima).
	_, _, _, r1, r2 := testbed(t)
	single, _ := Combine(r1)
	both, _ := Combine(r1, r2)
	db := cities.Default()
	nSingle := len(AnalyzeAll(db, single, core.Options{}, 2, 0))
	nBoth := len(AnalyzeAll(db, both, core.Options{}, 2, 0))
	if nBoth < nSingle {
		t.Errorf("combination detected fewer /24s (%d) than one census (%d)", nBoth, nSingle)
	}
	t.Logf("single census: %d, combined: %d", nSingle, nBoth)
}

func TestExecuteWithBlacklistShrinksErrors(t *testing.T) {
	w, h, vps, _, _ := testbed(t)
	bl, err := prober.BuildBlacklist(w, vps[0], h.Targets(), prober.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	run := execute(w, vps[:10], h, bl, 3, Config{Seed: 9})
	// Errors seen during the census exclude everything the preliminary
	// blacklist caught from the same probing behaviour.
	for _, s := range run.Stats {
		if s.Sent >= h.Len() {
			t.Errorf("%s probed blacklisted hosts", s.VP.Name)
		}
	}
	// The single-VP blacklist covers error behaviour that is
	// target-deterministic; a follow-up census sees only the few hosts
	// whose error reply was transiently lost during the blacklist run.
	if run.Greylist.Len() > bl.Len()/10 {
		t.Errorf("census still saw %d greylistable errors after blacklisting %d", run.Greylist.Len(), bl.Len())
	}
}

func TestMeasurementsAssembly(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	c, _ := Combine(r1)
	for tix := range c.Targets {
		ms := c.Measurements(tix)
		if len(ms) == 0 {
			continue
		}
		for _, m := range ms {
			if m.RTT <= 0 || !m.VPLoc.Valid() || m.VP == "" {
				t.Fatalf("bad measurement %+v", m)
			}
		}
		return // checking the first target with samples suffices here
	}
}

func TestSaveLoadRun(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, r1); err != nil {
		t.Fatal(err)
	}
	t.Logf("serialized run: %d bytes for %d x %d matrix",
		buf.Len(), len(r1.VPs), len(r1.Targets))
	got, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != r1.Round || len(got.VPs) != len(r1.VPs) || len(got.Targets) != len(r1.Targets) {
		t.Fatal("run metadata does not round trip")
	}
	for vi := range r1.VPs {
		if got.VPs[vi] != r1.VPs[vi] {
			t.Fatal("VP does not round trip")
		}
		for ti := 0; ti < len(r1.Targets); ti += 53 {
			if got.RTTus[vi][ti] != r1.RTTus[vi][ti] {
				t.Fatalf("matrix cell (%d,%d) does not round trip", vi, ti)
			}
		}
	}
	if got.Greylist.Len() != r1.Greylist.Len() {
		t.Errorf("greylist round trip: %d vs %d", got.Greylist.Len(), r1.Greylist.Len())
	}
	// A loaded run combines and analyzes exactly like the original.
	c1, _ := Combine(r1)
	c2, _ := Combine(got)
	n1 := len(AnalyzeAll(cities.Default(), c1, core.Options{}, 2, 0))
	n2 := len(AnalyzeAll(cities.Default(), c2, core.Options{}, 2, 0))
	if n1 != n2 {
		t.Errorf("loaded run analyzes differently: %d vs %d", n1, n2)
	}
}

func TestLoadRunRejectsGarbage(t *testing.T) {
	if _, err := LoadRun(bytes.NewBufferString("not a run")); err == nil {
		t.Error("garbage accepted")
	}
	// A truncated valid stream must error too.
	_, _, _, r1, _ := testbed(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, r1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated run accepted")
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	w, h, vps, _, _ := testbed(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the census starts
	run, err := ExecuteContext(ctx, w, vps[:20], h, nil, 7, Config{Seed: 9})
	if err == nil {
		t.Fatal("cancelled census returned no error")
	}
	if len(run.RTTus) != 20 {
		t.Fatalf("partial run has %d rows", len(run.RTTus))
	}
	// Every row exists (all empty), so downstream code cannot panic.
	for _, row := range run.RTTus {
		if len(row) != h.Len() {
			t.Fatal("row length wrong on cancelled run")
		}
	}
	if run.TotalProbes() != 0 {
		t.Errorf("cancelled census sent %d probes", run.TotalProbes())
	}
}
