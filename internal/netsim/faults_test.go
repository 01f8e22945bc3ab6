package netsim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	retryable := []error{ErrDropped, ErrOverloaded, fmt.Errorf("wrapped: %w", ErrDropped)}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	fatal := []error{ErrNodeDown, ErrUnknownNode, ErrPartitioned, ErrNoHandler,
		ErrSelfUnderload, ErrCancelled, errors.New("other"), nil}
	for _, err := range fatal {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

// faultNet builds a network with n registered echo nodes.
func faultNet(n int) (*Network, []NodeID) {
	net := New(DefaultConfig())
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("node-%02d", i))
		net.Register(ids[i], func(from NodeID, req any) (any, error) { return req, nil })
	}
	return net, ids
}

func TestFaultPlanScheduleFires(t *testing.T) {
	net, ids := faultNet(6)
	plan := &FaultPlan{
		Seed:  7,
		Scope: ids,
		Events: []FaultEvent{
			{At: 10 * time.Second, Kind: FaultCrash, Nodes: []NodeID{ids[1], ids[2]}},
			{At: 20 * time.Second, Kind: FaultDropRate, Rate: 1.0},
			{At: 30 * time.Second, Kind: FaultDropRate, Rate: 0},
			{At: 30 * time.Second, Kind: FaultRecover},
		},
	}

	// Nothing due yet.
	if fired := plan.Advance(5*time.Second, net); len(fired) != 0 {
		t.Fatalf("fired %d events at t=5s, want 0", len(fired))
	}
	if net.IsDown(ids[1]) {
		t.Fatal("node down before its crash event")
	}

	// The crash fires; the drop-rate episode is still in the future.
	fired := plan.Advance(12*time.Second, net)
	if len(fired) != 1 || fired[0].Kind != FaultCrash {
		t.Fatalf("fired = %+v, want one crash", fired)
	}
	if !net.IsDown(ids[1]) || !net.IsDown(ids[2]) {
		t.Fatal("crash event did not mark nodes down")
	}
	if _, _, err := net.CallCtx(context.Background(), ids[0], ids[1], "ping"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("call to crashed node: err = %v, want ErrNodeDown", err)
	}

	// Lossy episode: every message drops.
	plan.Advance(20*time.Second, net)
	if _, _, err := net.CallCtx(context.Background(), ids[0], ids[3], "ping"); !errors.Is(err, ErrDropped) {
		t.Fatalf("call during lossy episode: err = %v, want ErrDropped", err)
	}

	// Episode ends and the crashed nodes recover (Recover with no Nodes
	// revives everything the plan crashed).
	plan.Advance(time.Minute, net)
	if net.IsDown(ids[1]) || net.IsDown(ids[2]) {
		t.Fatal("recover event did not revive crashed nodes")
	}
	if _, _, err := net.CallCtx(context.Background(), ids[0], ids[1], "ping"); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
	if !plan.Done() {
		t.Fatal("plan not done after final event")
	}
}

func TestFaultPlanPartitionAndHeal(t *testing.T) {
	net, ids := faultNet(4)
	plan := &FaultPlan{
		Events: []FaultEvent{
			{At: time.Second, Kind: FaultPartition, Groups: map[NodeID]int{ids[3]: 1}},
			{At: 2 * time.Second, Kind: FaultHeal},
		},
	}
	plan.Advance(time.Second, net)
	if _, _, err := net.CallCtx(context.Background(), ids[0], ids[3], "x"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("cross-partition call: err = %v, want ErrPartitioned", err)
	}
	plan.Advance(2*time.Second, net)
	if _, _, err := net.CallCtx(context.Background(), ids[0], ids[3], "x"); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

func TestFaultPlanFractionDeterministic(t *testing.T) {
	run := func() []NodeID {
		net, ids := faultNet(20)
		plan := &FaultPlan{
			Seed:  42,
			Scope: ids,
			Events: []FaultEvent{
				{At: time.Second, Kind: FaultCrash, Fraction: 0.5},
			},
		}
		plan.Advance(time.Second, net)
		return plan.CrashedNodes()
	}
	a, b := run(), run()
	if len(a) != 10 {
		t.Fatalf("crashed %d of 20 at fraction 0.5, want 10", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim sets diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestFaultPlanFractionSamplesSurvivors(t *testing.T) {
	// A second 50% storm kills half of the SURVIVORS, so the crashed set
	// grows to 75% of the scope without double-crashing anyone.
	net, ids := faultNet(16)
	plan := &FaultPlan{
		Seed:  3,
		Scope: ids,
		Events: []FaultEvent{
			{At: time.Second, Kind: FaultCrash, Fraction: 0.5},
			{At: 2 * time.Second, Kind: FaultCrash, Fraction: 0.5},
		},
	}
	plan.Advance(time.Second, net)
	if got := len(plan.CrashedNodes()); got != 8 {
		t.Fatalf("first storm crashed %d, want 8", got)
	}
	plan.Advance(2*time.Second, net)
	if got := len(plan.CrashedNodes()); got != 12 {
		t.Fatalf("after second storm crashed %d, want 12", got)
	}
}

func TestFaultPlanDoesNotDisturbLinkStreams(t *testing.T) {
	// Costs of calls on an untouched link must be identical whether or
	// not a plan fired in between: victim sampling never draws from link
	// streams.
	observe := func(withPlan bool) []time.Duration {
		net, ids := faultNet(8)
		var out []time.Duration
		for i := 0; i < 3; i++ {
			_, c, err := net.CallCtx(context.Background(), ids[0], ids[1], "x")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c.Latency)
			if withPlan && i == 0 {
				plan := &FaultPlan{Seed: 9, Scope: ids[4:],
					Events: []FaultEvent{{At: 0, Kind: FaultCrash, Fraction: 0.5}}}
				plan.Advance(time.Second, net)
			}
		}
		return out
	}
	a, b := observe(false), observe(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d shifted: %v vs %v", i, a[i], b[i])
		}
	}
}
