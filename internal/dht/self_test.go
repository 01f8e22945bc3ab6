package dht

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

// TestWalkerIsNeverOneOfTheClosest: a walker among the K nodes nearest a
// key answers its own walk first, but it is never one of the closest set.
// lookupNodes, Locate and FindProviders each converge on the K nearest
// other nodes, and Located.Holder is always a remote node. The walker's
// copy still counts as a vote: a newer record it alone holds wins, and
// then no holder is named.
func TestWalkerIsNeverOneOfTheClosest(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes := buildSwarm(t, 40, cfg)
	rng := xrand.New(2054)
	ctx := context.Background()
	among := 0
	for i := 0; i < 200; i++ {
		key := KeyOfString(fmt.Sprintf("walker-%d-%d", i, rng.Intn(1<<30)))
		at := rng.Intn(len(nodes))
		walker, writer := nodes[at], nodes[(at+1+rng.Intn(len(nodes)-1))%len(nodes)]
		if !slices.Contains(nearest(nodes, nil, key, cfg.K), walker.self.Addr) {
			continue
		}
		among++
		if _, _, err := writer.Put(key, []byte("v1"), 1); err != nil {
			t.Fatalf("key %d: Put: %v", i, err)
		}
		if _, _, err := writer.Provide(key); err != nil {
			t.Fatalf("key %d: Provide: %v", i, err)
		}
		want := fmt.Sprint(nearest(nodes, walker, key, cfg.K))
		w, _ := walker.lookupNodes(key)
		loc, _, err := walker.Locate(ctx, key, nil)
		if err != nil || string(loc.Value) != "v1" {
			t.Fatalf("key %d: Locate = %q, err=%v", i, loc.Value, err)
		}
		found, _, err := walker.FindProviders(key, 0)
		if err != nil || !found.Walk.converged {
			t.Fatalf("key %d: FindProviders converged=%v err=%v", i, found.Walk.converged, err)
		}
		for _, got := range []Walk{w, loc.Walk, found.Walk} {
			var addrs []netsim.NodeID
			for _, r := range got.Closest {
				addrs = append(addrs, r.Addr)
			}
			if fmt.Sprint(addrs) != want {
				t.Fatalf("key %d: walk from %s converged on %v, the %d nearest others are %s", i, walker.self.Addr, addrs, cfg.K, want)
			}
		}
		if loc.Holder == (Contact{}) || loc.Holder == walker.self {
			t.Fatalf("key %d: holder %+v, want a remote replica", i, loc.Holder)
		}

		walker.StoreLocal(key, []byte("v2"), 2)
		loc, _, err = walker.Locate(ctx, key, nil)
		if err != nil || string(loc.Value) != "v2" || loc.Seq != 2 || loc.Holder != (Contact{}) {
			t.Fatalf("key %d: with a newer own copy Locate = %q seq %d holder %+v, err=%v", i, loc.Value, loc.Seq, loc.Holder, err)
		}
	}
	if among < 20 {
		t.Fatalf("fixture: only %d of 200 walkers were among their key's %d nearest", among, cfg.K)
	}
}

// TestWriterKeepsACopy: a write from a node outside the K nearest the
// key lands on its writer too, walked or onto a converged walk, and the
// writer then reads it back from itself at no cost: an immutable read,
// and provider discovery that needs one provider.
func TestWriterKeepsACopy(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes := buildSwarm(t, 40, cfg)
	rng := xrand.New(2055)
	ctx := context.Background()
	outside := 0
	for i := 0; i < 50; i++ {
		key := KeyOfString(fmt.Sprintf("writer-%d-%d", i, rng.Intn(1<<30)))
		writer := nodes[rng.Intn(len(nodes))]
		if slices.Contains(nearest(nodes, nil, key, cfg.K), writer.self.Addr) {
			continue
		}
		outside++
		if n, _, err := writer.Put(key, []byte("v1"), 1); err != nil || n != cfg.K {
			t.Fatalf("key %d: Put = %d replicas, err=%v; want %d", i, n, err, cfg.K)
		}
		if v, ok := writer.Local(key); !ok || string(v) != "v1" {
			t.Fatalf("key %d: after a walked Put the writer holds %q (%v)", i, v, ok)
		}
		loc, _, err := writer.Locate(ctx, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, _, err := writer.PutAt(loc.Walk, []byte("v2"), 2); err != nil || n != cfg.K {
			t.Fatalf("key %d: PutAt = %d replicas, err=%v; want %d", i, n, err, cfg.K)
		}
		got, cost, err := writer.GetImmutableCtx(ctx, key)
		if err != nil || string(got) != "v2" || cost != (netsim.Cost{}) {
			t.Fatalf("key %d: the writer reads back %q for %+v, err=%v; want v2 at no cost", i, got, cost, err)
		}

		holders, _, err := writer.Provide(key)
		if err != nil || slices.Contains(holders, writer.self) {
			t.Fatalf("key %d: Provide reported %v, err=%v; want the closest set alone", i, addrsOf(holders), err)
		}
		found, cost, err := writer.FindProviders(key, 1)
		if err != nil || cost != (netsim.Cost{}) || found.FirstCost != (netsim.Cost{}) ||
			fmt.Sprint(addrsOf(found.All)) != fmt.Sprint([]netsim.NodeID{writer.self.Addr}) || found.Walk.converged {
			t.Fatalf("key %d: the writer finds %v for %+v (first after %+v, converged %v), err=%v; want itself at no cost",
				i, addrsOf(found.All), cost, found.FirstCost, found.Walk.converged, err)
		}
	}
	if outside < 20 {
		t.Fatalf("fixture: only %d of 50 writers were outside their key's %d nearest", outside, cfg.K)
	}
}

// TestSelfCallStaysInProcess: a node's call to itself is answered
// in-process. It costs nothing, the network counts no call, and it draws
// nothing from the node's own link stream: on twin swarms the next
// message sent over that link through the network costs the same whether
// or not the node answered itself first.
func TestSelfCallStaysInProcess(t *testing.T) {
	netA, a := buildSwarm(t, 12, DefaultConfig())
	netB, b := buildSwarm(t, 12, DefaultConfig())
	for _, net := range []*netsim.Network{netA, netB} {
		net.SetDropRate(0.05) // a drop draw too, on every message
	}
	ctx := context.Background()
	n, twin := a[3], b[3]
	key := KeyOfString("own")
	n.StoreLocal(key, []byte("mine"), 1)

	before := netA.StatsSnapshot()
	if cost, err := n.Ping(n.self); err != nil || cost != (netsim.Cost{}) {
		t.Fatalf("self ping cost %+v, err=%v", cost, err)
	}
	if _, cost, err := n.callCtx(ctx, n.self, findValueReq{From: n.self, Key: key}); err != nil || cost != (netsim.Cost{}) {
		t.Fatalf("self FIND_VALUE cost %+v, err=%v", cost, err)
	}
	if got, cost, err := n.GetImmutableCtx(ctx, key); err != nil || string(got) != "mine" || cost != (netsim.Cost{}) {
		t.Fatalf("own copy read %q for %+v, err=%v", got, cost, err)
	}
	if after := netA.StatsSnapshot(); after != before {
		t.Fatalf("network stats moved %+v → %+v on in-process answers", before, after)
	}

	for i := 0; i < 8; i++ {
		_, got, gotErr := netA.CallCtx(ctx, n.self.Addr, n.self.Addr, pingReq{From: n.self})
		_, want, wantErr := netB.CallCtx(ctx, twin.self.Addr, twin.self.Addr, pingReq{From: twin.self})
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("message %d on the self link: %+v (err %v), twin %+v (err %v)", i, got, gotErr, want, wantErr)
		}
	}
}
