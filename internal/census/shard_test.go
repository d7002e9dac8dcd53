package census

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// shardsOf slices a run into per-(VP, span) shard frames, the shape an
// agent streams back to the coordinator.
func shardsOf(run *Run, slots []int, width int) []*ShardRows {
	var out []*ShardRows
	for _, sp := range ShardSpans(len(run.Targets), width) {
		for vi := range run.VPs {
			row := make([]int32, sp.Hi-sp.Lo)
			copy(row, run.RTTus[vi][sp.Lo:sp.Hi])
			out = append(out, &ShardRows{
				Round:    run.Round,
				Lo:       sp.Lo,
				Hi:       sp.Hi,
				Slots:    []int{slots[vi]},
				RTTus:    [][]int32{row},
				Stats:    []ShardStats{ShardStatsOf(run.Stats[vi])},
				Greylist: run.Greylist,
			})
		}
	}
	return out
}

// foldByShards replays a run through the shard-wise fold path.
func foldByShards(t *testing.T, cp *Campaign, run *Run, width int, shuffleSeed int64, duplicate bool) {
	t.Helper()
	slots, err := cp.BeginRound(run.Round, run.Targets, run.VPs)
	if err != nil {
		t.Fatalf("BeginRound: %v", err)
	}
	shards := shardsOf(run, slots, width)
	if duplicate {
		// A re-lease after agent loss delivers the same shard twice.
		shards = append(shards, shards[:len(shards)/3]...)
	}
	if shuffleSeed != 0 {
		rng := rand.New(rand.NewSource(shuffleSeed))
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
	}
	for _, sr := range shards {
		// Round-trip every frame through the wire codec: the fold path
		// under test is the one the coordinator runs on decoded frames.
		enc, err := sr.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		dec, err := DecodeShardRows(enc)
		if err != nil {
			t.Fatalf("DecodeShardRows: %v", err)
		}
		if err := cp.FoldShard(dec); err != nil {
			t.Fatalf("FoldShard: %v", err)
		}
	}
	if err := cp.FinishRound(run.Health); err != nil {
		t.Fatalf("FinishRound: %v", err)
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

// The shard-wise fold must reproduce FoldRun byte-for-byte: same combined
// matrix, same greylist — the acceptance bar for the distributed census.
func TestFoldShardMatchesFoldRun(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)

	ref := NewCampaign(CampaignConfig{})
	if err := ref.FoldRun(r1); err != nil {
		t.Fatal(err)
	}
	if err := ref.FoldRun(r2); err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{0, 509, 1931, len(r1.Targets) + 5} {
		cp := NewCampaign(CampaignConfig{})
		foldByShards(t, cp, r1, width, 0, false)
		foldByShards(t, cp, r2, width, 0, false)
		sameCampaign(t, ref, cp)
	}
}

// Per-cell min is commutative, associative, and idempotent: shards folded
// in any order, even duplicated (a re-leased shard after agent loss),
// give the identical combined state.
func TestFoldShardOrderInvariance(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)

	ref := NewCampaign(CampaignConfig{})
	foldByShards(t, ref, r1, 512, 0, false)
	foldByShards(t, ref, r2, 512, 0, false)

	for _, seed := range []int64{1, 42, 1337} {
		cp := NewCampaign(CampaignConfig{})
		foldByShards(t, cp, r1, 512, seed, true)
		foldByShards(t, cp, r2, 512, seed, true)
		sameCampaign(t, ref, cp)
	}
}

func TestFoldShardTypedErrors(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	cp := NewCampaign(CampaignConfig{})

	if err := cp.FoldShard(&ShardRows{Round: r1.Round}); err == nil || !strings.Contains(err.Error(), "no shard round open") {
		t.Fatalf("fold without round: %v", err)
	}

	slots, err := cp.BeginRound(r1.Round, r1.Targets, r1.VPs[:2])
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int32, len(cp.Combined().RTTus))
	for v, row := range cp.Combined().RTTus {
		before[v] = append([]int32(nil), row...)
	}

	if _, err := cp.BeginRound(r1.Round+1, r1.Targets, r1.VPs); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Fatalf("nested BeginRound: %v", err)
	}
	if err := cp.FoldRun(r1); err == nil || !strings.Contains(err.Error(), "FinishRound first") {
		t.Fatalf("FoldRun during shard round: %v", err)
	}
	if err := cp.FoldShard(&ShardRows{Round: r1.Round + 9}); err == nil || !strings.Contains(err.Error(), "open round is") {
		t.Fatalf("round mismatch: %v", err)
	}

	row := func(n int) [][]int32 { return [][]int32{make([]int32, n)} }

	var slotErr *UnknownVPSlotError
	err = cp.FoldShard(&ShardRows{Round: r1.Round, Lo: 0, Hi: 4, Slots: []int{99}, RTTus: row(4)})
	if !errors.As(err, &slotErr) || slotErr.Slot != 99 {
		t.Fatalf("out-of-range slot: %v", err)
	}
	// Register only the first two VPs, then reference a slot belonging to
	// a VP outside the open round.
	cp2 := NewCampaign(CampaignConfig{})
	if err := cp2.FoldRun(r1); err != nil {
		t.Fatal(err)
	}
	s2, err := cp2.BeginRound(r1.Round+1, r1.Targets, r1.VPs[:1])
	if err != nil {
		t.Fatal(err)
	}
	err = cp2.FoldShard(&ShardRows{Round: r1.Round + 1, Lo: 0, Hi: 4, Slots: []int{s2[0] + 1}, RTTus: row(4)})
	if !errors.As(err, &slotErr) {
		t.Fatalf("slot outside round: %v", err)
	}

	var rangeErr *ShardRangeError
	err = cp.FoldShard(&ShardRows{Round: r1.Round, Lo: 0, Hi: len(r1.Targets) + 1, Slots: []int{slots[0]}, RTTus: row(len(r1.Targets) + 1)})
	if !errors.As(err, &rangeErr) || rangeErr.RowCells != -1 {
		t.Fatalf("span beyond targets: %v", err)
	}
	err = cp.FoldShard(&ShardRows{Round: r1.Round, Lo: 0, Hi: 8, Slots: []int{slots[0]}, RTTus: row(5)})
	if !errors.As(err, &rangeErr) || rangeErr.RowCells != 5 {
		t.Fatalf("row width mismatch: %v", err)
	}

	// None of the rejected frames may have touched the combined rows.
	if !reflect.DeepEqual(before, cp.Combined().RTTus) {
		t.Fatal("rejected frames changed the combined rows")
	}

	if err := cp.FinishRound(RunHealth{Round: r1.Round}); err != nil {
		t.Fatal(err)
	}
	if err := cp.FinishRound(RunHealth{}); err == nil {
		t.Fatal("double FinishRound succeeded")
	}
}

func TestShardRowsEncodeDeterministic(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	sr := &ShardRows{
		Round:    r1.Round,
		Lo:       10,
		Hi:       500,
		Slots:    []int{0, 1},
		RTTus:    [][]int32{r1.RTTus[0][10:500], r1.RTTus[1][10:500]},
		Stats:    []ShardStats{ShardStatsOf(r1.Stats[0]), ShardStatsOf(r1.Stats[1])},
		Greylist: r1.Greylist,
	}
	a, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("shard frame encoding is not deterministic")
	}
	dec, err := DecodeShardRows(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Round != sr.Round || dec.Lo != sr.Lo || dec.Hi != sr.Hi {
		t.Fatalf("header round-trip: %+v", dec)
	}
	if !reflect.DeepEqual(dec.Slots, sr.Slots) || !reflect.DeepEqual(dec.Stats, sr.Stats) {
		t.Fatal("slots/stats round-trip mismatch")
	}
	for i := range sr.RTTus {
		if !reflect.DeepEqual(dec.RTTus[i], sr.RTTus[i]) {
			t.Fatalf("row %d round-trip mismatch", i)
		}
	}
	if !reflect.DeepEqual(dec.Greylist.Snapshot(), sr.Greylist.Snapshot()) {
		t.Fatal("greylist round-trip mismatch")
	}
}

func TestShardRowsEncodeRejectsBadShapes(t *testing.T) {
	for _, sr := range []*ShardRows{
		{Lo: 5, Hi: 3},
		{Lo: -1, Hi: 3},
		{Lo: 0, Hi: 2, Slots: []int{0}}, // missing row
		{Lo: 0, Hi: 2, Slots: []int{0}, RTTus: [][]int32{{1}}},                                 // narrow row
		{Lo: 0, Hi: 2, Slots: []int{-1}, RTTus: [][]int32{{1, 2}}},                             // negative slot
		{Lo: 0, Hi: 2, Slots: []int{0}, RTTus: [][]int32{{1, 2}}, Stats: []ShardStats{{}, {}}}, // stats mismatch
		{Lo: 0, Hi: 2, Slots: []int{0}, RTTus: [][]int32{{1, 2}}, Stats: []ShardStats{{Sent: -1}}},
	} {
		if _, err := sr.Encode(); err == nil {
			t.Errorf("Encode accepted %+v", sr)
		}
	}
}

func TestDecodeShardRowsHostile(t *testing.T) {
	good := &ShardRows{
		Round: 3, Lo: 0, Hi: 4,
		Slots: []int{0},
		RTTus: [][]int32{{100, NoSample, 250, 3}},
		Stats: []ShardStats{{Sent: 4, Echo: 3}},
		Greylist: func() *prober.Greylist {
			g := prober.NewGreylist()
			g.Add(netsim.IP(77), netsim.ReplyAdminFiltered)
			return g
		}(),
	}
	enc, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeShardRows(enc); err != nil {
		t.Fatal(err)
	}

	// Every truncation of a valid frame must fail cleanly, not panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeShardRows(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// And so must single-byte corruptions of the header region.
	for i := 0; i < len(enc) && i < 24; i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		DecodeShardRows(mut) // must not panic; error or success both fine
	}

	hostile := [][]byte{
		[]byte("ACMS9\n"),
		append([]byte(ShardFrameMagic), 0x01), // bad flags
		append([]byte(ShardFrameMagic), 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x7f, 0),    // giant width, no payload
		append([]byte(ShardFrameMagic), 0, 1, 0, 4, 0, 0xff, 0xff, 0xff, 0xff, 0x0f), // giant row count
	}
	for i, b := range hostile {
		if _, err := DecodeShardRows(b); err == nil {
			t.Errorf("hostile frame %d accepted", i)
		}
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
// repeats an address, is refused in shard frames and saved runs alike.
func TestGreylistSectionRefusesBadEntries(t *testing.T) {
	for name, add := range map[string]func(*prober.Greylist){
		"echo":    func(g *prober.Greylist) { g.Add(0x01020304, netsim.ReplyEcho) },
		"timeout": func(g *prober.Greylist) { g.Add(0x01020304, netsim.ReplyTimeout) },
		"unknown": func(g *prober.Greylist) { g.Add(0x01020304, netsim.ReplyKind(200)) },
	} {
		g := prober.NewGreylist()
		g.Add(0x01020300, netsim.ReplyAdminFiltered)
		add(g)
		sr := &ShardRows{Round: 1, Lo: 0, Hi: 2, Slots: []int{0}, RTTus: [][]int32{{1, NoSample}}, Greylist: g}
		frame, err := sr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := DecodeShardRows(frame); err == nil {
			t.Errorf("%s: shard frame decoded with greylist %v", name, dec.Greylist.Breakdown())
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

// The in-place encoder appends to dst, allocates nothing into a buffer
// with room when the greylist is empty, and declares every row's length
// exactly.
func TestShardRowsAppendEncode(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	sr := &ShardRows{
		Round: r1.Round, Lo: 10, Hi: 500, Slots: []int{0},
		RTTus: [][]int32{r1.RTTus[0][10:500]},
		Stats: []ShardStats{ShardStatsOf(r1.Stats[0])},
	}
	want, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sr.AppendEncode([]byte("head"))
	if err != nil || string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
		t.Fatalf("AppendEncode differs from Encode (%v)", err)
	}
	buf := make([]byte, 0, 2*len(want))
	if n := testing.AllocsPerRun(50, func() { buf, _ = sr.AppendEncode(buf[:0]) }); n != 0 {
		t.Fatalf("AppendEncode into a buffer with room allocates %v times", n)
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 200; i++ {
		row := make([]int32, rng.Intn(300))
		density := rng.Float64()
		for ti := range row {
			row[ti] = NoSample
			if rng.Float64() < density {
				row[ti] = rng.Int31()
			}
		}
		if got := len(appendRowV2(nil, row)); got != rowV2Len(row) {
			t.Fatalf("row %d: %d bytes appended, rowV2Len says %d", i, got, rowV2Len(row))
		}
	}
}

func TestShardCheckStats(t *testing.T) {
	cfg := Config{Rate: 2000}
	vp := platform.VP{ID: 3, Name: "vp", LoadFactor: 1.5}
	honest := func() *ShardRows {
		return &ShardRows{
			Round: 1, Lo: 20, Hi: 30, Slots: []int{0},
			RTTus: [][]int32{{5, NoSample, 7, NoSample, NoSample, 0, NoSample, 9, NoSample, NoSample}},
			Stats: []ShardStats{{Sent: 8, Echo: 4, Errors: 1, Timeouts: 3, SourceDropped: 1, FaultLost: 1,
				Completion: prober.Config{Rate: 2000}.Completion(8, vp)}},
		}
	}
	if err := honest().CheckStats(cfg, vp); err != nil {
		t.Fatalf("honest shard refused: %v", err)
	}
	const half = math.MaxInt/2 + 1 // two of them wrap an int
	for name, lie := range map[string]func(*ShardRows){
		"no-stats":        func(sr *ShardRows) { sr.Stats = nil },
		"two-stats":       func(sr *ShardRows) { sr.Stats = append(sr.Stats, sr.Stats[0]) },
		"sent-over-width": func(sr *ShardRows) { sr.Stats[0].Sent, sr.Stats[0].Timeouts = 11, 6 },
		"sum":             func(sr *ShardRows) { sr.Stats[0].Sent = 7 },
		"negative":        func(sr *ShardRows) { sr.Stats[0].Errors, sr.Stats[0].Timeouts = -1, 5 },
		"wrapping-sum":    func(sr *ShardRows) { sr.Stats[0].Echo, sr.Stats[0].Errors = half, half },
		"losses":          func(sr *ShardRows) { sr.Stats[0].FaultLost = 3 },
		"wrapping-losses": func(sr *ShardRows) { sr.Stats[0].FaultLost, sr.Stats[0].SourceDropped = half, half },
		"samples":         func(sr *ShardRows) { sr.RTTus[0][1] = 3 },
		"completion":      func(sr *ShardRows) { sr.Stats[0].Completion++ },
		"sent-huge":       func(sr *ShardRows) { sr.Stats[0].Sent, sr.Stats[0].Timeouts = math.MaxInt32, math.MaxInt32-5 },
	} {
		sr := honest()
		lie(sr)
		if err := sr.CheckStats(cfg, vp); err == nil {
			t.Errorf("%s: shard accepted", name)
		}
	}
	// A real probe of a span passes, greylist discoveries and all.
	w, h, vps, _, _ := testbed(t)
	targets := h.Targets()[:2000]
	for _, vp := range vps[:10] {
		sr := new(ShardRows)
		if err := ProbeShard(w, prober.NewPlan(w, targets, nil), cfg, Unit{Round: 1, VP: vp, Span: Span{Lo: 0, Hi: len(targets)}}, sr); err != nil {
			t.Fatal(err)
		}
		if err := sr.CheckStats(cfg, vp); err != nil {
			t.Fatalf("%s: honest probe refused: %v", vp.Name, err)
		}
	}
}
