package cluster

import (
	"context"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// parkedTailPlan finds a recoverable crash plan under which the last
// vantage point of every round crashes on its first attempt. Units go out
// VP-major, so that vantage point is first leased when the round has
// nothing else left to hand out: once it is parked for the retry backoff,
// every agent idles and only the clock can move the round on. (The tests
// lease whole rows — the default width exceeds the testbed's target list
// — so the other agent's last lease is over well inside the backoff.)
func parkedTailPlan(t *testing.T, vps [][]platform.VP) (netsim.FaultConfig, *netsim.FaultPlan) {
	t.Helper()
search:
	for seed := uint64(1); seed < 2000; seed++ {
		fcfg := netsim.FaultConfig{Seed: seed, CrashFraction: 0.3}
		plan, err := netsim.NewFaultPlan(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, set := range vps {
			if crashes, sticky := plan.Crashes(set[len(set)-1].ID, uint64(r+1)); !crashes || sticky {
				continue search
			}
		}
		return fcfg, plan
	}
	t.Fatal("no crash plan parks the last vantage point of every round")
	panic("unreachable")
}

// wakeArmed asks the loop whether the wake timer is pointed at a parked
// vantage point.
func wakeArmed(c *Coordinator) bool {
	armed := make(chan bool, 1)
	c.post(func() { armed <- !c.wakeAt.IsZero() })
	select {
	case v := <-armed:
		return v
	case <-c.stopped:
		return false
	}
}

// A round whose last runnable vantage points are parked must be woken by
// the backoff deadline itself. With the maintenance tick an hour away,
// nothing else will: a coordinator that leans on the tick to release
// backoffs (as it did while dispatch discarded RoundSched.Next's wake
// time) sits here until the context gives up.
func TestParkedTailWakesWithoutTick(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ccfg := census.Config{Seed: 9, RetryBackoff: time.Millisecond}
	ref := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	for r, set := range vps {
		if _, err := ref.ExecuteRoundPipelined(context.Background(), w, set, h, nil, uint64(r+1), census.PipelineConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	fcfg, plan := parkedTailPlan(t, vps)

	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	coord, err := NewCoordinator(Config{
		Campaign: cp,
		Targets:  h.Targets(),
		Census:   ccfg,
		World:    cfg,
		Faults:   &fcfg,
		Tick:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHarness(coord, HarnessConfig{Agents: 2, Agent: AgentConfig{World: w.WithFaults(plan), Capacity: 1}})
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for r, set := range vps {
		if _, err := coord.ExecuteRound(ctx, uint64(r+1), set); err != nil {
			t.Fatalf("round %d did not settle without the tick: %v", r+1, err)
		}
	}
	if coord.Stats().ReLeases == 0 {
		t.Fatal("the crash plan parked nobody")
	}
	assertIdentical(t, ref, cp)
}

// The wake timer belongs to the round that armed it. A round that ends
// with a vantage point still parked — aborted, or the coordinator closed
// under it — must leave the timer stopped and unarmed: a deadline kept
// from the old round would stop the next round's (later) deadlines from
// ever being armed, and a fire that was already on its way must find no
// round and do nothing.
func TestWakeTimerStopsWithRound(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	// Long enough that the parked vantage point is still parked when the
	// test looks, short enough to wait out once in round 2.
	ccfg := census.Config{Seed: 9, RetryBackoff: 250 * time.Millisecond}
	fcfg, plan := parkedTailPlan(t, vps)

	start := func() (*Coordinator, *Harness) {
		coord, err := NewCoordinator(Config{
			Campaign: census.NewCampaign(census.CampaignConfig{Census: ccfg}),
			Targets:  h.Targets(),
			Census:   ccfg,
			World:    cfg,
			Faults:   &fcfg,
			Tick:     time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs, err := NewHarness(coord, HarnessConfig{Agents: 2, Agent: AgentConfig{World: w.WithFaults(plan), Capacity: 1}})
		if err != nil {
			coord.Close()
			t.Fatal(err)
		}
		return coord, hs
	}
	// roundUntilParked starts round 1 and returns once its tail is parked
	// and the timer armed; the channel delivers the round's error.
	roundUntilParked := func(ctx context.Context, coord *Coordinator) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := coord.ExecuteRound(ctx, 1, vps[0])
			done <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); !wakeArmed(coord); {
			select {
			case err := <-done:
				t.Fatalf("round ended before its tail was seen parked: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("wake timer never armed")
			}
		}
		return done
	}

	// Aborted round: the timer stops with it, a late fire is a no-op, and
	// the next round arms its own deadline and settles.
	coord, hs := start()
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := roundUntilParked(ctx, coord)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled round returned no error")
	}
	stopped := make(chan bool, 1)
	coord.post(func() {
		stopped <- coord.round == nil && coord.wakeAt.IsZero() && !coord.wake.Stop()
		coord.wake.Reset(0) // the fire Stop was too late for
	})
	if !<-stopped {
		t.Fatal("wake timer outlived its round")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := coord.ExecuteRound(ctx2, 2, vps[1]); err != nil {
		t.Fatalf("round after an aborted one: %v", err)
	}

	// Closed coordinator: same, read directly once the loop has exited.
	coord, hs = start()
	done = roundUntilParked(context.Background(), coord)
	hs.Close()
	if err := <-done; err == nil {
		t.Fatal("round on a closed coordinator returned no error")
	}
	if !coord.wakeAt.IsZero() || coord.wake.Stop() {
		t.Fatal("wake timer outlived the coordinator")
	}
}
