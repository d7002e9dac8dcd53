package census

import (
	"bytes"
	"testing"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// fuzzSeedRun fabricates a tiny but fully-populated run for fuzz seeds:
// both formats of it are valid inputs, and mutations of them reach deep
// into the decoders.
func fuzzSeedRun() *Run {
	grey := prober.FromSnapshot(map[netsim.IP]netsim.ReplyKind{
		0x01020304: netsim.ReplyAdminFiltered,
		0x01020310: netsim.ReplyHostProhibited,
	})
	vps := []platform.VP{
		{ID: 1, Name: "vp-a", LoadFactor: 1},
		{ID: 2, Name: "vp-b", LoadFactor: 1.5},
	}
	return &Run{
		Round:   3,
		VPs:     vps,
		Targets: []netsim.IP{0x0A000001, 0x0A000101, 0x0A000201},
		RTTus: [][]int32{
			{1500, -1, 1 << 30},
			{-1, 0, 42},
		},
		Stats: []prober.Stats{
			{VP: vps[0], Sent: 3, Echo: 2, Completion: 3 * time.Millisecond},
			{VP: vps[1], Sent: 3, Echo: 2, Completion: 4 * time.Millisecond},
		},
		Greylist: grey,
		Health:   RunHealth{Round: 3, VPs: 2, Completed: 2},
	}
}

// FuzzLoadRun feeds arbitrary bytes to the run decoder, mirroring
// internal/record's codec fuzzing: it must never panic, and
// everything it accepts must round-trip through SaveRun byte-identically.
func FuzzLoadRun(f *testing.F) {
	run := fuzzSeedRun()
	var v2 bytes.Buffer
	if err := SaveRun(&v2, run); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(gen1Head)
	f.Add([]byte{})
	f.Add([]byte(runMagicV2))
	f.Add(append([]byte(runMagicV2), 0))
	f.Add([]byte("ACMR9\nwrong magic"))
	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Add([]byte(runMagicV2[:3]))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted runs must be internally consistent and re-save
		// deterministically: v2 re-encodes of a decoded run are pure
		// functions of its contents.
		if len(got.RTTus) != len(got.VPs) {
			t.Fatalf("accepted run has %d rows for %d VPs", len(got.RTTus), len(got.VPs))
		}
		for _, row := range got.RTTus {
			if len(row) != len(got.Targets) {
				t.Fatalf("accepted run has a %d-cell row for %d targets", len(row), len(got.Targets))
			}
		}
		var a, b bytes.Buffer
		if err := SaveRun(&a, got); err != nil {
			t.Fatalf("re-save of accepted run failed: %v", err)
		}
		got2, err := LoadRun(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-load of re-saved run failed: %v", err)
		}
		if err := SaveRun(&b, got2); err != nil {
			t.Fatalf("second re-save failed: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("accepted run does not re-save byte-identically")
		}
	})
}

// fuzzSeedShard fabricates a small shard frame — the streaming unit the
// cluster coordinator decodes straight off the network, so the decoder
// is fuzzed with the same never-panic contract as the archive path.
func fuzzSeedShard() *ShardRows {
	run := fuzzSeedRun()
	return &ShardRows{
		Round:    run.Round,
		Lo:       1,
		Hi:       3,
		Slots:    []int{0, 5},
		RTTus:    [][]int32{{-1, 1 << 30}, {0, 42}},
		Stats:    []ShardStats{ShardStatsOf(run.Stats[0]), ShardStatsOf(run.Stats[1])},
		Greylist: run.Greylist,
	}
}

// FuzzDecodeShardRows covers the streaming frame header introduced for
// the distributed census: arbitrary bytes must never panic the decoder,
// and every accepted frame must re-encode byte-identically.
func FuzzDecodeShardRows(f *testing.F) {
	enc, err := fuzzSeedShard().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{})
	f.Add([]byte(ShardFrameMagic))
	f.Add(append([]byte(ShardFrameMagic), 0))
	f.Add(append([]byte(ShardFrameMagic), 0xFF))
	f.Add([]byte("ACMS9\nwrong magic"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeShardRows(data)
		if err != nil {
			return
		}
		if len(got.RTTus) != len(got.Slots) || len(got.Stats) != len(got.Slots) {
			t.Fatalf("accepted frame has %d rows / %d stats for %d slots",
				len(got.RTTus), len(got.Stats), len(got.Slots))
		}
		width := got.Hi - got.Lo
		for _, row := range got.RTTus {
			if len(row) != width {
				t.Fatalf("accepted frame has a %d-cell row for width %d", len(row), width)
			}
		}
		re, err := got.Encode()
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		got2, err := DecodeShardRows(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2, err := got2.Encode()
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("accepted frame does not re-encode byte-identically")
		}
	})
}
