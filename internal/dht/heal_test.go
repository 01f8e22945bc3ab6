package dht

import (
	"context"
	"errors"
	"testing"

	"repro/internal/netsim"
)

// entryFailed reports the failed flag of id in n's routing table, and
// whether the contact is present at all.
func entryFailed(n *Node, id Key) (failed, present bool) {
	n.rt.mu.Lock()
	defer n.rt.mu.Unlock()
	for i := range n.rt.buckets {
		for _, e := range n.rt.buckets[i].entries {
			if e.c.ID == id {
				return e.failed, true
			}
		}
	}
	return false, false
}

func TestPartitionHealMidLookup(t *testing.T) {
	net, nodes := buildSwarm(t, 16, DefaultConfig())
	key := KeyOfString("heal-me")
	if _, _, err := nodes[1].Put(key, []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}

	// Isolate the reader, then run an iterative lookup whose query
	// callback heals the partition after the first failure — simulating
	// the network healing while the lookup is still in flight.
	reader := nodes[10]
	net.SetPartition(map[netsim.NodeID]int{reader.Self().Addr: 1})

	failures, healed := 0, false
	var val []byte
	_, _, err := reader.iterativeLookup(context.Background(), key, never, func(c Contact) (reply, bool, netsim.Cost) {
		resp, cc, err := reader.callCtx(context.Background(), c, findValueReq{From: reader.self, Key: key})
		if err != nil {
			failures++
			if !healed {
				net.SetPartition(nil)
				healed = true
			}
			return nil, false, cc
		}
		r := resp.(findValueResp)
		if r.Found && val == nil {
			val = r.Value
		}
		return r, true, cc
	}, nil, nil)
	if err != nil {
		t.Fatalf("lookup error after heal: %v", err)
	}
	if failures == 0 {
		t.Fatal("partition produced no failures — fixture did not exercise the heal path")
	}
	if string(val) != "payload" {
		t.Fatalf("lookup did not resume after heal: val = %q", val)
	}
}

func TestHealedContactRehabilitated(t *testing.T) {
	net := netsim.New(netsim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.MaxRetries = 0 // fail fast so ErrPartitioned marks the contact
	a := NewNode(net, "a", cfg)
	b := NewNode(net, "b", cfg)
	a.rt.update(b.Self())

	net.SetPartition(map[netsim.NodeID]int{"b": 1})
	if _, err := a.Ping(b.Self()); !errors.Is(err, netsim.ErrPartitioned) {
		t.Fatalf("ping across partition: err = %v, want ErrPartitioned", err)
	}
	if failed, ok := entryFailed(a, b.Self().ID); !ok || !failed {
		t.Fatalf("contact failed=%v present=%v after partition ping, want failed and present", failed, ok)
	}

	// Heal: the next successful reply clears the failure flag.
	net.SetPartition(nil)
	if _, err := a.Ping(b.Self()); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
	if failed, ok := entryFailed(a, b.Self().ID); !ok || failed {
		t.Fatalf("contact failed=%v present=%v after heal ping, want rehabilitated", failed, ok)
	}
}

func TestRetryRecoversDroppedCalls(t *testing.T) {
	// Under a lossy network, retries should rescue a meaningful share of
	// pings that a no-retry node loses. Both configurations run on their
	// own identically-seeded networks, so the underlying drop draws match.
	attempt := func(maxRetries int) int {
		net := netsim.New(netsim.DefaultConfig())
		cfg := DefaultConfig()
		cfg.MaxRetries = maxRetries
		a := NewNode(net, "a", cfg)
		b := NewNode(net, "b", cfg)
		net.SetDropRate(0.4)
		ok := 0
		for i := 0; i < 100; i++ {
			if _, err := a.Ping(b.Self()); err == nil {
				ok++
			}
		}
		return ok
	}
	bare, retried := attempt(0), attempt(3)
	if retried <= bare {
		t.Fatalf("retries did not help: %d successes without vs %d with", bare, retried)
	}
	// 40% drop: bare ≈ 60/100; three retries ≈ 1-0.4^4 ≈ 97/100.
	if retried < 90 {
		t.Fatalf("retried successes = %d/100, want >= 90", retried)
	}
}

func TestRetryBackoffAccountedAndDeterministic(t *testing.T) {
	run := func() netsim.Cost {
		net := netsim.New(netsim.DefaultConfig())
		cfg := DefaultConfig()
		cfg.MaxRetries = 3
		a := NewNode(net, "a", cfg)
		b := NewNode(net, "b", cfg)
		net.SetDropRate(1.0) // every attempt fails: 4 attempts, 3 backoffs
		_, cost, err := a.callCtx(context.Background(), b.Self(), pingReq{From: a.Self()})
		if !errors.Is(err, netsim.ErrDropped) {
			t.Fatalf("err = %v, want ErrDropped", err)
		}
		return cost
	}
	c1, c2 := run(), run()
	if c1 != c2 {
		t.Fatalf("retry cost nondeterministic: %+v vs %+v", c1, c2)
	}
	if c1.Msgs != 4 {
		t.Fatalf("msgs = %d, want 4 (one per attempt)", c1.Msgs)
	}
	// Backoff latency must be present on top of the four failed-call
	// charges: base 25ms + 50ms + 100ms (±25% jitter) beyond wire time.
	base := netsim.DefaultConfig().BaseLatency
	if c1.Latency <= 4*2*base {
		t.Fatalf("latency %v does not include backoff (wire alone = %v)", c1.Latency, 4*2*base)
	}
}

func TestCancelledCallDoesNotMarkFailed(t *testing.T) {
	net := netsim.New(netsim.DefaultConfig())
	a := NewNode(net, "a", DefaultConfig())
	b := NewNode(net, "b", DefaultConfig())
	a.rt.update(b.Self())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.callCtx(ctx, b.Self(), pingReq{From: a.Self()}); !errors.Is(err, netsim.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if failed, ok := entryFailed(a, b.Self().ID); !ok || failed {
		t.Fatalf("cancelled call poisoned the table: failed=%v present=%v", failed, ok)
	}
}

// TestWalkReuseRewalksPastDeadContact: a remembered walk is stale only
// if one of its contacts died between the read and the write. The write
// notices the failed STORE, walks once more and writes again, so the
// record still reaches full replication on live nodes.
func TestWalkReuseRewalksPastDeadContact(t *testing.T) {
	cfg := DefaultConfig()
	net, nodes := buildSwarm(t, 32, cfg)
	key := KeyOfString("rmw-under-churn")
	writer := nodes[5]
	if _, _, err := writer.Put(key, []byte("v1"), 1); err != nil {
		t.Fatal(err)
	}
	loc, _, err := writer.Locate(context.Background(), key, nil)
	if err != nil || len(loc.Closest) != cfg.K {
		t.Fatalf("Locate: %d closest, err=%v", len(loc.Closest), err)
	}
	victim := loc.Closest[0].Addr
	net.SetDown(victim, true)

	accepted, cost, err := writer.PutAt(loc.Walk, []byte("v2"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if accepted < cfg.K-1 {
		t.Fatalf("accepted = %d, want >= %d", accepted, cfg.K-1)
	}
	if cost.Msgs <= 2*cfg.K {
		t.Fatalf("cost %d msgs: a failed wave, a re-walk and a second wave cost more than two waves", cost.Msgs)
	}
	live := 0
	for _, nd := range nodes {
		nd.mu.Lock()
		sv, ok := nd.values[key]
		nd.mu.Unlock()
		if ok && sv.seq == 2 {
			if nd.self.Addr == victim {
				t.Fatalf("dead contact %s holds the new version", victim)
			}
			live++
		}
	}
	if live < cfg.K-1 {
		t.Fatalf("%d live replicas at the new version, want >= %d", live, cfg.K-1)
	}
	if got, seq, _, err := nodes[20].GetCtx(context.Background(), key); err != nil || string(got) != "v2" || seq != 2 {
		t.Fatalf("Get = %q seq=%d err=%v", got, seq, err)
	}

	// The same walk with every contact alive again is not re-walked.
	net.SetDown(victim, false)
	if _, cost, err := writer.PutAt(loc.Walk, []byte("v3"), 3); err != nil || cost.Msgs != cfg.K {
		t.Fatalf("healthy reuse cost %d msgs, err=%v; want one %d-wide wave", cost.Msgs, err, cfg.K)
	}
}
