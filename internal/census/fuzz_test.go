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
	grey := prober.FromSorted([]netsim.IP{0x01020304, 0x01020310},
		[]netsim.ReplyKind{netsim.ReplyAdminFiltered, netsim.ReplyHostProhibited})
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
