package census

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// schedStep is one call on the scheduler under test. Times are offsets
// from an arbitrary epoch, passed to the scheduler as now: the scheduler
// reads no clock, so a schedule replays exactly.
type schedStep struct {
	op string // "next", "done", "fail"
	at time.Duration

	// next: the unit expected (vp < 0: none, and wake is the expected
	// wake offset, 0 meaning the zero time). done/fail: the unit most
	// recently handed out for (vp, attempt) is reported.
	vp, span, attempt int
	wake              time.Duration

	quarantines bool   // fail: the failure exhausts the budget
	rejected    string // done: the error expected, "" for none
}

func schedVPs(n int) []platform.VP {
	vps := make([]platform.VP, n)
	for i := range vps {
		vps[i] = platform.VP{ID: 100 + i, Name: string(rune('a' + i))}
	}
	return vps
}

// TestRoundSchedPolicy pins the round engine's policy — the one both the
// in-process executor and the cluster coordinator run on — one decision
// per case.
func TestRoundSchedPolicy(t *testing.T) {
	const none = -1
	boom := errors.New("boom")
	cancelled := errors.New("cancelled")
	for _, tc := range []struct {
		name       string
		vps, nT    int
		span       int
		cfg        Config
		steps      []schedStep
		abort      error
		settled    bool
		perVP      []VPHealth
		probes     int
		echo       int
		errHas     []string
		partialRow int
	}{
		{
			// The bug this scheduler fixes: a backoff used to sleep inside
			// a probe worker. A failure parks the VP, and Next goes on to
			// the next VP; the parked one comes back at now+Backoff.
			name: "failure parks the VP, not the caller",
			vps:  2, nT: 4, span: 4,
			cfg: Config{MaxAttempts: 3, RetryBackoff: 100 * time.Millisecond},
			steps: []schedStep{
				{op: "next", vp: 0, span: 0, attempt: 0},
				{op: "fail", vp: 0},
				{op: "next", vp: 1, span: 0, attempt: 0},
				{op: "next", vp: none, wake: 100 * time.Millisecond},
				{op: "done", vp: 1},
				{op: "next", at: 99 * time.Millisecond, vp: none, wake: 100 * time.Millisecond},
				{op: "next", at: 100 * time.Millisecond, vp: 0, span: 0, attempt: 1},
				{op: "next", at: 100 * time.Millisecond, vp: none},
				{op: "done", vp: 0, attempt: 1},
			},
			settled: true,
			perVP:   []VPHealth{{VP: "a", Attempts: 2, Recovered: true}, {VP: "b", Attempts: 1}},
			probes:  8, echo: 4,
		},
		{
			// Attempts are per VP: once the crash bumps the VP to attempt
			// 1, its remaining spans run there. The old local executor
			// restarted every span at attempt 0 and re-crashed S times.
			name: "a recoverable crash costs one failure for all spans",
			vps:  1, nT: 10, span: 4,
			cfg: Config{RetryBackoff: -1},
			steps: []schedStep{
				{op: "next", vp: 0, span: 0, attempt: 0},
				{op: "fail", vp: 0},
				{op: "next", vp: 0, span: 0, attempt: 1},
				{op: "done", vp: 0, attempt: 1},
				{op: "next", vp: 0, span: 1, attempt: 1},
				{op: "done", vp: 0, attempt: 1},
				{op: "next", vp: 0, span: 2, attempt: 1},
				{op: "done", vp: 0, attempt: 1},
				{op: "next", vp: none},
			},
			settled: true,
			perVP:   []VPHealth{{VP: "a", Attempts: 2, Recovered: true}},
			probes:  10, echo: 10,
		},
		{
			name: "an exhausted budget abandons the VP's remaining spans",
			vps:  2, nT: 10, span: 4,
			cfg: Config{MaxAttempts: 2, RetryBackoff: -1},
			steps: []schedStep{
				{op: "next", vp: 0, span: 0, attempt: 0},
				{op: "done", vp: 0},
				{op: "next", vp: 0, span: 1, attempt: 0},
				{op: "fail", vp: 0},
				{op: "next", vp: 0, span: 1, attempt: 1},
				{op: "fail", vp: 0, attempt: 1, quarantines: true},
				{op: "next", vp: 1, span: 0, attempt: 0},
				{op: "done", vp: 1},
				{op: "next", vp: 1, span: 1, attempt: 0},
				{op: "done", vp: 1},
				{op: "next", vp: 1, span: 2, attempt: 0},
				{op: "done", vp: 1},
				{op: "next", vp: none},
			},
			settled:    true,
			perVP:      []VPHealth{{VP: "a", Attempts: 2, Quarantined: true, Err: "boom"}, {VP: "b", Attempts: 1}},
			probes:     14, // only successful units count
			echo:       10,
			errHas:     []string{"VP a quarantined after 2 attempts: boom"},
			partialRow: 1,
		},
		{
			// A unit is (VP, span): the result of the attempt-0 probe
			// still folds after the VP was bumped (a lease presumed lost
			// whose agent answers after all), and the re-issued unit's own
			// result is then refused instead of counted twice.
			name: "a result from an older attempt folds after a bump",
			vps:  1, nT: 8, span: 4,
			cfg: Config{RetryBackoff: -1},
			steps: []schedStep{
				{op: "next", vp: 0, span: 0, attempt: 0},
				{op: "fail", vp: 0},
				{op: "next", vp: 0, span: 0, attempt: 1},
				{op: "done", vp: 0, attempt: 0},
				{op: "done", vp: 0, attempt: 1, rejected: "not in flight"},
				{op: "next", vp: 0, span: 1, attempt: 1},
				{op: "done", vp: 0, attempt: 1},
			},
			settled: true,
			perVP:   []VPHealth{{VP: "a", Attempts: 2, Recovered: true}},
			probes:  8, echo: 8,
		},
		{
			name: "an abort marks started VPs aborted and the rest skipped",
			vps:  3, nT: 8, span: 4,
			cfg: Config{RetryBackoff: -1},
			steps: []schedStep{
				{op: "next", vp: 0, span: 0, attempt: 0},
				{op: "next", vp: 1, span: 0, attempt: 0},
				{op: "done", vp: 0},
			},
			abort: cancelled,
			perVP: []VPHealth{
				{VP: "a", Attempts: 1, Err: "round aborted"},
				{VP: "b", Attempts: 1, Err: "round aborted"},
				{VP: "c", Skipped: true},
			},
			probes: 4, echo: 4,
			errHas: []string{"cancelled"},
		},
		{
			name: "zero targets settle at once",
			vps:  2, nT: 0, span: 4,
			steps:   []schedStep{{op: "next", vp: none}},
			settled: true,
			perVP:   []VPHealth{{VP: "a"}, {VP: "b"}},
		},
		{
			name: "zero vantage points settle at once",
			vps:  0, nT: 8, span: 4,
			steps:   []schedStep{{op: "next", vp: none}},
			settled: true,
			perVP:   []VPHealth{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			targets := make([]netsim.IP, tc.nT)
			for i := range targets {
				targets[i] = netsim.IP(10<<24 + i<<8 + 1)
			}
			cp := NewCampaign(CampaignConfig{Census: tc.cfg})
			s, err := cp.OpenRound(5, targets, schedVPs(tc.vps), tc.span)
			if err != nil {
				t.Fatal(err)
			}
			epoch := time.Unix(1_000_000, 0)
			type key struct{ vp, attempt int }
			handed := map[key]Unit{}
			for i, st := range tc.steps {
				now := epoch.Add(st.at)
				switch st.op {
				case "next":
					u, ok, wake := s.Next(now)
					if st.vp < 0 {
						var want time.Time
						if st.wake != 0 {
							want = epoch.Add(st.wake)
						}
						if ok || !wake.Equal(want) {
							t.Fatalf("step %d: Next = %+v, %v, wake %v; want nothing until %v", i, u, ok, wake, want)
						}
						continue
					}
					wantSpan := ShardSpans(tc.nT, tc.span)[st.span]
					if !ok || u.Index != st.vp || u.Span != wantSpan || u.Attempt != st.attempt || u.Round != 5 {
						t.Fatalf("step %d: Next = %+v, %v; want VP %d span %v attempt %d", i, u, ok, st.vp, wantSpan, st.attempt)
					}
					handed[key{u.Index, u.Attempt}] = u
				case "done":
					u := handed[key{st.vp, st.attempt}]
					row := make([]int32, u.Span.Hi-u.Span.Lo)
					for c := range row {
						row[c] = 1000
					}
					err := s.Done(u, &ShardRows{
						Round: 5, Lo: u.Span.Lo, Hi: u.Span.Hi,
						Slots: []int{u.Slot}, RTTus: [][]int32{row},
						Stats: []ShardStats{{Sent: len(row)}},
					})
					if (err == nil) != (st.rejected == "") || (err != nil && !strings.Contains(err.Error(), st.rejected)) {
						t.Fatalf("step %d: Done = %v, want %q", i, err, st.rejected)
					}
				case "fail":
					err := s.Fail(handed[key{st.vp, st.attempt}], boom, now)
					if (err != nil) != st.quarantines {
						t.Fatalf("step %d: Fail = %v, want quarantine %v", i, err, st.quarantines)
					}
				}
			}
			if s.Settled() != tc.settled {
				t.Fatalf("Settled = %v, want %v", s.Settled(), tc.settled)
			}
			sum, err := s.Close(tc.abort)
			if (err != nil) != (len(tc.errHas) > 0) {
				t.Fatalf("Close error = %v, want mentions of %q", err, tc.errHas)
			}
			for _, want := range tc.errHas {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Close error %q does not mention %q", err, want)
				}
			}
			if tc.abort != nil && !errors.Is(err, tc.abort) {
				t.Errorf("Close error %v does not wrap the abort cause", err)
			}
			if !reflect.DeepEqual(sum.Health.PerVP, tc.perVP) {
				t.Errorf("per-VP health = %+v, want %+v", sum.Health.PerVP, tc.perVP)
			}
			if sum.Round != 5 || sum.VPs != tc.vps || sum.Probes != tc.probes || sum.EchoTargets != tc.echo {
				t.Errorf("summary = %+v, want round 5, %d VPs, %d probes, %d echo targets", sum, tc.vps, tc.probes, tc.echo)
			}
			if sum.Health.PartialRows != tc.partialRow {
				t.Errorf("partial rows = %d, want %d", sum.Health.PartialRows, tc.partialRow)
			}
			// The round is closed whatever happened in it: the campaign
			// takes the next one.
			if _, err := cp.OpenRound(6, targets, schedVPs(tc.vps), tc.span); err != nil {
				t.Fatalf("round after Close: %v", err)
			}
		})
	}
}
