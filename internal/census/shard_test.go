package census

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// foldByUnits replays a whole-round run through the round scheduler, as
// an executor does: it puts every vantage point's next unit in flight,
// then calls Done on them in an order shuffled by shuffleSeed (0: VP
// order), wave after wave until the round settles. A unit's row is its
// span of the run's row.
func foldByUnits(t *testing.T, cp *Campaign, run *Run, width int, shuffleSeed int64) {
	t.Helper()
	s, err := cp.OpenRound(run.Round, run.Targets, run.VPs, width)
	if err != nil {
		t.Fatalf("OpenRound: %v", err)
	}
	rng := rand.New(rand.NewSource(shuffleSeed))
	now := time.Now()
	var wave []Unit
	for !s.Settled() {
		wave = wave[:0]
		for {
			u, ok, _ := s.Next(now)
			if !ok {
				break
			}
			wave = append(wave, u)
		}
		if shuffleSeed != 0 {
			rng.Shuffle(len(wave), func(i, j int) { wave[i], wave[j] = wave[j], wave[i] })
		}
		for _, u := range wave {
			sr := &ShardRows{
				RTTus:    run.RTTus[u.Index][u.Span.Lo:u.Span.Hi],
				Stats:    ShardStatsOf(run.Stats[u.Index]),
				Greylist: run.Greylist,
			}
			if err := s.Done(u, sr); err != nil {
				t.Fatalf("Done: %v", err)
			}
		}
	}
	if _, err := s.Close(nil); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func sameCampaign(t *testing.T, want, got *Campaign) {
	t.Helper()
	cw, cg := want.Combined(), got.Combined()
	if !reflect.DeepEqual(cw.VPs, cg.VPs) {
		t.Fatal("VP union diverges")
	}
	if !reflect.DeepEqual(cw.Targets, cg.Targets) {
		t.Fatal("target lists diverge")
	}
	if cw.Rounds != cg.Rounds {
		t.Fatalf("rounds %d vs %d", cw.Rounds, cg.Rounds)
	}
	for v := range cw.RTTus {
		if !reflect.DeepEqual(cw.RTTus[v], cg.RTTus[v]) {
			t.Fatalf("combined row %d diverges", v)
		}
	}
	if !reflect.DeepEqual(want.Greylist().Snapshot(), got.Greylist().Snapshot()) {
		t.Fatal("greylists diverge")
	}
}

// Folding a round unit by unit through RoundSched.Done, in a shuffled
// order, must reproduce FoldRun of the same whole-round runs byte for
// byte: same combined matrix, same greylist — the acceptance bar for the
// distributed census. Widths: one target (over the runs' first 300
// targets: a round of one-target units schedules V units per target), an
// odd width, the default and one span per row.
func TestFoldShardMatchesFoldRun(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)
	head := func(run *Run, n int) *Run {
		cut := *run
		cut.Targets = run.Targets[:n]
		cut.RTTus = make([][]int32, len(run.RTTus))
		for v, row := range run.RTTus {
			cut.RTTus[v] = row[:n]
		}
		return &cut
	}
	for _, tc := range []struct{ width, targets int }{
		{1, 300}, {509, len(r1.Targets)}, {0, len(r1.Targets)}, {len(r1.Targets) + 5, len(r1.Targets)},
	} {
		a, b := head(r1, tc.targets), head(r2, tc.targets)
		ref := NewCampaign(CampaignConfig{})
		if err := ref.FoldRun(a); err != nil {
			t.Fatal(err)
		}
		if err := ref.FoldRun(b); err != nil {
			t.Fatal(err)
		}
		cp := NewCampaign(CampaignConfig{})
		foldByUnits(t, cp, a, tc.width, 7)
		foldByUnits(t, cp, b, tc.width, 7)
		sameCampaign(t, ref, cp)
	}
}

// Per-cell min is commutative and associative: units folded in any
// order across vantage points give the identical combined state.
func TestFoldShardOrderInvariance(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)

	ref := NewCampaign(CampaignConfig{})
	foldByUnits(t, ref, r1, 512, 0)
	foldByUnits(t, ref, r2, 512, 0)

	for _, seed := range []int64{1, 42, 1337} {
		cp := NewCampaign(CampaignConfig{})
		foldByUnits(t, cp, r1, 512, seed)
		foldByUnits(t, cp, r2, 512, seed)
		sameCampaign(t, ref, cp)
	}
}

// Done refuses a unit that is not in flight and a row that is not its
// unit's span wide, leaving the campaign and the unit as they were; a
// campaign opens one round at a time and closes it once.
func TestFoldShardTypedErrors(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	cp := NewCampaign(CampaignConfig{})
	s, err := cp.OpenRound(r1.Round, r1.Targets, r1.VPs[:2], 64)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int32, len(cp.Combined().RTTus))
	for v, row := range cp.Combined().RTTus {
		before[v] = append([]int32(nil), row...)
	}

	if _, err := cp.OpenRound(r1.Round+1, r1.Targets, r1.VPs, 64); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Fatalf("nested OpenRound: %v", err)
	}
	if err := cp.FoldRun(r1); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Fatalf("FoldRun during an open round: %v", err)
	}

	u, ok, _ := s.Next(time.Now())
	if !ok {
		t.Fatal("no unit")
	}
	row := func(n int) *ShardRows { return &ShardRows{RTTus: make([]int32, n)} }
	notInFlight := map[string]Unit{"other span": u, "other slot": u, "other round": u, "other VP": u}
	for name, lie := range map[string]func(*Unit){
		"other span":  func(v *Unit) { v.Span = Span{Lo: 64, Hi: 128} },
		"other slot":  func(v *Unit) { v.Slot++ },
		"other round": func(v *Unit) { v.Round++ },
		"other VP":    func(v *Unit) { v.Index = 1 },
	} {
		v := notInFlight[name]
		lie(&v)
		if err := s.Done(v, row(64)); err == nil || !strings.Contains(err.Error(), "not in flight") {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, cells := range []int{0, 63, 65} {
		if err := s.Done(u, row(cells)); err == nil || !strings.Contains(err.Error(), "-cell row") {
			t.Fatalf("%d-cell row: %v", cells, err)
		}
	}
	// None of the refused rows may have touched the combined rows.
	if !reflect.DeepEqual(before, cp.Combined().RTTus) {
		t.Fatal("refused rows changed the combined rows")
	}
	// The unit is still in flight: its row at the right width folds, once.
	if err := s.Done(u, row(64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Done(u, row(64)); err == nil || !strings.Contains(err.Error(), "not in flight") {
		t.Fatalf("second Done: %v", err)
	}

	if _, err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(nil); err == nil || !strings.Contains(err.Error(), "no round open") {
		t.Fatalf("second Close: %v", err)
	}
}

func TestShardSpans(t *testing.T) {
	for _, tc := range []struct {
		n, width, spans int
	}{
		{0, 10, 0}, {-3, 10, 0}, {10, 0, 1}, {10, 100, 1}, {10, 3, 4}, {9, 3, 3}, {1, 1, 1},
	} {
		spans := ShardSpans(tc.n, tc.width)
		if len(spans) != tc.spans {
			t.Fatalf("ShardSpans(%d, %d) = %d spans, want %d", tc.n, tc.width, len(spans), tc.spans)
		}
		next := 0
		for _, sp := range spans {
			if sp.Lo != next || sp.Hi <= sp.Lo || sp.Hi > tc.n {
				t.Fatalf("ShardSpans(%d, %d): bad span %+v", tc.n, tc.width, sp)
			}
			next = sp.Hi
		}
		if len(spans) > 0 && next != tc.n {
			t.Fatalf("ShardSpans(%d, %d) covers %d targets", tc.n, tc.width, next)
		}
	}
}

// A greylist section feeds the campaign greylist, which becomes the next
// census's blacklist: an entry whose kind is not an ICMP error, or that
// repeats an address, is refused in rows frames and saved runs alike.
func TestGreylistSectionRefusesBadEntries(t *testing.T) {
	for name, add := range map[string]func(*prober.Greylist){
		"echo":    func(g *prober.Greylist) { g.Add(0x01020304, netsim.ReplyEcho) },
		"timeout": func(g *prober.Greylist) { g.Add(0x01020304, netsim.ReplyTimeout) },
		"unknown": func(g *prober.Greylist) { g.Add(0x01020304, netsim.ReplyKind(200)) },
	} {
		g := prober.NewGreylist()
		g.Add(0x01020300, netsim.ReplyAdminFiltered)
		add(g)
		if dec, _, err := DecodeGreylist(AppendGreylist(nil, g)); err == nil {
			t.Errorf("%s: greylist section decoded as %v", name, dec.Breakdown())
		}
		var buf bytes.Buffer
		if err := SaveRun(&buf, &Run{Round: 1, Targets: []netsim.IP{1}, Greylist: g}); err != nil {
			t.Fatal(err)
		}
		if run, err := LoadRun(&buf); err == nil {
			t.Errorf("%s: run loaded with greylist %v", name, run.Greylist.Breakdown())
		}
	}
	repeated := []byte{2, 4, byte(netsim.ReplyAdminFiltered), 0, byte(netsim.ReplyHostProhibited)}
	if _, _, err := DecodeGreylist(repeated); err == nil {
		t.Error("greylist section repeating an address accepted")
	}
	g, rest, err := DecodeGreylist(append(AppendGreylist(nil, fuzzSeedRun().Greylist), 9))
	if err != nil || !bytes.Equal(rest, []byte{9}) || !reflect.DeepEqual(g.Snapshot(), fuzzSeedRun().Greylist.Snapshot()) {
		t.Fatalf("greylist section round-trip: %v, rest %v, %v", g.Snapshot(), rest, err)
	}
	if got := AppendGreylist(nil, prober.NewGreylist()); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("empty greylist section is %v", got)
	}
}

func TestShardCheckStats(t *testing.T) {
	cfg := Config{Rate: 2000}
	vp := platform.VP{ID: 3, Name: "vp", LoadFactor: 1.5}
	unit := Unit{Round: 1, VP: vp, Span: Span{Lo: 20, Hi: 30}}
	honest := func() *ShardRows {
		return &ShardRows{
			RTTus: []int32{5, NoSample, 7, NoSample, NoSample, 0, NoSample, 9, NoSample, NoSample},
			Stats: ShardStats{Sent: 8, Echo: 4, Errors: 1, Timeouts: 3, SourceDropped: 1, FaultLost: 1,
				Completion: prober.Config{Rate: 2000}.Completion(8, vp)},
		}
	}
	if err := honest().CheckStats(cfg, unit); err != nil {
		t.Fatalf("honest shard refused: %v", err)
	}
	const half = math.MaxInt/2 + 1 // two of them wrap an int
	for name, lie := range map[string]func(*ShardRows){
		"sent-over-width": func(sr *ShardRows) { sr.Stats.Sent, sr.Stats.Timeouts = 11, 6 },
		"sum":             func(sr *ShardRows) { sr.Stats.Sent = 7 },
		"negative":        func(sr *ShardRows) { sr.Stats.Errors, sr.Stats.Timeouts = -1, 5 },
		"wrapping-sum":    func(sr *ShardRows) { sr.Stats.Echo, sr.Stats.Errors = half, half },
		"losses":          func(sr *ShardRows) { sr.Stats.FaultLost = 3 },
		"wrapping-losses": func(sr *ShardRows) { sr.Stats.FaultLost, sr.Stats.SourceDropped = half, half },
		"samples":         func(sr *ShardRows) { sr.RTTus[1] = 3 },
		"completion":      func(sr *ShardRows) { sr.Stats.Completion++ },
		"sent-huge":       func(sr *ShardRows) { sr.Stats.Sent, sr.Stats.Timeouts = math.MaxInt32, math.MaxInt32-5 },
	} {
		sr := honest()
		lie(sr)
		if err := sr.CheckStats(cfg, unit); err == nil {
			t.Errorf("%s: shard accepted", name)
		}
	}
	// The width is the unit's: the same result over a narrower span claims
	// more probes than it has targets.
	if err := honest().CheckStats(cfg, Unit{VP: vp, Span: Span{Lo: 20, Hi: 27}}); err == nil {
		t.Error("8 probes over a 7-target unit accepted")
	}
	// A real probe of a span passes, greylist discoveries and all.
	w, h, vps, _, _ := testbed(t)
	targets := h.Targets()[:2000]
	for _, vp := range vps[:10] {
		sr := new(ShardRows)
		u := Unit{Round: 1, VP: vp, Span: Span{Lo: 0, Hi: len(targets)}}
		if err := ProbeShard(w, prober.NewPlan(w, targets, nil), cfg, u, sr); err != nil {
			t.Fatal(err)
		}
		if err := sr.CheckStats(cfg, u); err != nil {
			t.Fatalf("%s: honest probe refused: %v", vp.Name, err)
		}
	}
}

// A unit's result travels as its row (AppendRow, at the unit's width)
// and its greylist section (AppendGreylist). Probing the same unit twice
// writes the same bytes, and the bytes decode back to the result.
func TestShardRowsEncodeDeterministic(t *testing.T) {
	w, h, vps, _, _ := testbed(t)
	cfg := Config{Rate: 2000, Seed: 9}
	u := Unit{Round: 1, VP: vps[0], Span: Span{Lo: 10, Hi: 500}}
	targets := h.Targets()[u.Span.Lo:u.Span.Hi]
	encode := func() ([]byte, *ShardRows) {
		sr := new(ShardRows)
		if err := ProbeShard(w, prober.NewPlan(w, targets, nil), cfg, u, sr); err != nil {
			t.Fatal(err)
		}
		return AppendGreylist(AppendRow(nil, sr.RTTus), sr.Greylist), sr
	}
	a, sr := encode()
	if sr.Stats.Echo == 0 {
		t.Fatal("the unit drew no samples")
	}
	b, _ := encode()
	if !bytes.Equal(a, b) {
		t.Fatal("a unit's result does not encode deterministically")
	}
	row := make([]int32, u.Span.Hi-u.Span.Lo)
	rest, err := DecodeRow(a, row)
	if err != nil || !reflect.DeepEqual(row, sr.RTTus) {
		t.Fatalf("row round-trip mismatch (%v)", err)
	}
	g, rest, err := DecodeGreylist(rest)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(g.Snapshot(), sr.Greylist.Snapshot()) {
		t.Fatalf("greylist round-trip mismatch: %d bytes left, %v", len(rest), err)
	}
}

// Appending a unit's row and greylist after other bytes writes what a
// fresh encode writes and leaves those bytes alone; into a buffer with
// room the row appends without allocating.
func TestShardRowsAppendEncode(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	sr := &ShardRows{RTTus: r1.RTTus[0][10:500], Greylist: r1.Greylist}
	want := AppendGreylist(AppendRow(nil, sr.RTTus), sr.Greylist)
	got := AppendGreylist(AppendRow([]byte("head"), sr.RTTus), sr.Greylist)
	if string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
		t.Fatal("appending a unit's result differs from encoding it fresh")
	}
	buf := make([]byte, 0, 2*len(want))
	if n := testing.AllocsPerRun(50, func() { buf = AppendRow(buf[:0], sr.RTTus) }); n != 0 {
		t.Fatalf("AppendRow of a unit's row into a buffer with room allocates %v times", n)
	}
}

// The shapes a unit's result must not take are refused before they fold:
// a span or slot the scheduler did not issue is not in flight, a row not
// the span wide is refused by Done, and negative statistics by
// CheckStats. None of them touches the combined rows.
func TestShardRowsEncodeRejectsBadShapes(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	cp := NewCampaign(CampaignConfig{})
	s, err := cp.OpenRound(r1.Round, r1.Targets, r1.VPs[:1], 2)
	if err != nil {
		t.Fatal(err)
	}
	u, ok, _ := s.Next(time.Now())
	if !ok {
		t.Fatal("no unit")
	}
	before := make([][]int32, len(cp.Combined().RTTus))
	for v, row := range cp.Combined().RTTus {
		before[v] = append([]int32(nil), row...)
	}
	for name, shape := range map[string]func(*Unit, *ShardRows){
		"inverted span":  func(v *Unit, _ *ShardRows) { v.Span = Span{Lo: 5, Hi: 3} },
		"negative span":  func(v *Unit, _ *ShardRows) { v.Span = Span{Lo: -1, Hi: 1} },
		"negative slot":  func(v *Unit, _ *ShardRows) { v.Slot = -1 },
		"missing row":    func(_ *Unit, sr *ShardRows) { sr.RTTus = nil },
		"narrow row":     func(_ *Unit, sr *ShardRows) { sr.RTTus = sr.RTTus[:1] },
		"wide row":       func(_ *Unit, sr *ShardRows) { sr.RTTus = append(sr.RTTus, NoSample) },
		"negative stats": func(_ *Unit, sr *ShardRows) { sr.Stats.Sent = -1 },
	} {
		v := u
		sr := &ShardRows{RTTus: []int32{NoSample, NoSample}, Stats: ShardStats{Sent: 2, Timeouts: 2}}
		shape(&v, sr)
		if sr.CheckStats(Config{}, v) == nil && s.Done(v, sr) == nil {
			t.Fatalf("%s: folded", name)
		}
	}
	if !reflect.DeepEqual(before, cp.Combined().RTTus) {
		t.Fatal("refused results changed the combined rows")
	}
}
