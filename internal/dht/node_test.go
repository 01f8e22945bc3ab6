package dht

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/netsim"
)

// buildSwarm creates n bootstrapped DHT nodes on a fresh network.
func buildSwarm(t testing.TB, n int, cfg Config) (*netsim.Network, []*Node) {
	t.Helper()
	return buildSeededSwarm(t, netsim.DefaultConfig().Seed, n, cfg)
}

// buildSeededSwarm is buildSwarm on a network seeded with seed.
func buildSeededSwarm(t testing.TB, seed uint64, n int, cfg Config) (*netsim.Network, []*Node) {
	t.Helper()
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = seed
	net := netsim.New(ncfg)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode(net, netsim.NodeID(fmt.Sprintf("peer-%03d", i)), cfg)
	}
	first := nodes[0].Self()
	for i := 1; i < n; i++ {
		nodes[i].Bootstrap([]Contact{first})
	}
	// Second pass so early joiners learn about late joiners.
	for _, nd := range nodes {
		nd.Bootstrap([]Contact{first})
	}
	return net, nodes
}

func TestPutGetAcrossSwarm(t *testing.T) {
	_, nodes := buildSwarm(t, 20, DefaultConfig())
	key := KeyOfString("the-answer")
	val := []byte("42")
	replicas, _, err := nodes[3].Put(key, val, 1)
	if err != nil {
		t.Fatal(err)
	}
	if replicas < 2 {
		t.Fatalf("replicas = %d, want >= 2", replicas)
	}
	got, seq, _, err := nodes[17].GetCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "42" || seq != 1 {
		t.Fatalf("Get = %q seq=%d, want 42 seq=1", got, seq)
	}
}

func TestGetMissingKey(t *testing.T) {
	_, nodes := buildSwarm(t, 10, DefaultConfig())
	_, _, _, err := nodes[2].GetCtx(context.Background(), KeyOfString("never-stored"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestVersionedPutHigherSeqWins(t *testing.T) {
	_, nodes := buildSwarm(t, 16, DefaultConfig())
	key := KeyOfString("pointer")
	if _, _, err := nodes[1].Put(key, []byte("v1"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nodes[2].Put(key, []byte("v2"), 2); err != nil {
		t.Fatal(err)
	}
	got, seq, _, err := nodes[9].GetCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" || seq != 2 {
		t.Fatalf("Get = %q seq=%d, want v2 seq=2", got, seq)
	}
}

func TestStaleSeqDoesNotOverwrite(t *testing.T) {
	_, nodes := buildSwarm(t, 16, DefaultConfig())
	key := KeyOfString("pointer2")
	nodes[1].Put(key, []byte("new"), 5)
	nodes[2].Put(key, []byte("old"), 3) // stale write
	got, seq, _, err := nodes[9].GetCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" || seq != 5 {
		t.Fatalf("Get = %q seq=%d, want new seq=5", got, seq)
	}
}

func TestLookupCostGrowsSublinearly(t *testing.T) {
	cfg := DefaultConfig()
	_, small := buildSwarm(t, 8, cfg)
	_, large := buildSwarm(t, 128, cfg)

	key := KeyOfString("scaling")
	small[1].Put(key, []byte("x"), 1)
	large[1].Put(key, []byte("x"), 1)

	_, _, cSmall, err := small[7].GetCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cLarge, err := large[100].GetCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	// O(log n) routing: 16x more nodes should cost far less than 16x
	// messages. Allow factor 6.
	if cLarge.Msgs > 6*max(cSmall.Msgs, 3) {
		t.Fatalf("lookup msgs grew too fast: %d nodes→%d msgs vs %d nodes→%d msgs",
			8, cSmall.Msgs, 128, cLarge.Msgs)
	}
}

func TestGetSurvivesNodeFailures(t *testing.T) {
	net, nodes := buildSwarm(t, 32, DefaultConfig())
	key := KeyOfString("resilient")
	replicas, _, err := nodes[1].Put(key, []byte("alive"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if replicas < 3 {
		t.Skipf("need >=3 replicas to test failure tolerance, got %d", replicas)
	}
	// Kill a third of the swarm, but never the reader.
	for i := 0; i < len(nodes); i += 3 {
		if i != 20 {
			net.SetDown(nodes[i].Self().Addr, true)
		}
	}
	got, _, _, err := nodes[20].GetCtx(context.Background(), key)
	if err != nil {
		t.Fatalf("Get after failures: %v", err)
	}
	if string(got) != "alive" {
		t.Fatalf("Get = %q, want alive", got)
	}
}

func TestProvideAndFindProviders(t *testing.T) {
	_, nodes := buildSwarm(t, 24, DefaultConfig())
	key := KeyOfString("content-block")
	for _, i := range []int{2, 5, 11} {
		if _, _, err := nodes[i].Provide(key); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := nodes[20].FindProviders(key, 10)
	if err != nil {
		t.Fatal(err)
	}
	provs := res.All
	want := map[netsim.NodeID]bool{"peer-002": true, "peer-005": true, "peer-011": true}
	found := 0
	for _, p := range provs {
		if want[p.Addr] {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("found %d/3 providers: %v", found, provs)
	}
}

func TestFindProvidersLimit(t *testing.T) {
	_, nodes := buildSwarm(t, 24, DefaultConfig())
	key := KeyOfString("popular")
	for i := 0; i < 10; i++ {
		nodes[i].Provide(key)
	}
	found, _, err := nodes[20].FindProviders(key, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(found.All) > 3 || len(found.First) > 3 {
		t.Fatalf("limit violated: %d providers, %d at the first answer", len(found.All), len(found.First))
	}
}

// TestProviderSetOrderAndCap: a node keeps a key's provider records in
// address order whatever order they arrive in, keeps the first 16, and
// takes a repeat announce of a present provider as a no-op. A set it has
// answered GET_PROVIDERS with stays as it was when later announces land.
func TestProviderSetOrderAndCap(t *testing.T) {
	net := netsim.New(netsim.DefaultConfig())
	holder := NewNode(net, "holder", DefaultConfig())
	key := KeyOfString("provided")
	announce := func(c Contact) {
		if _, err := holder.HandleRPC(c.Addr, addProviderReq{From: c, Key: key, Provider: c}); err != nil {
			t.Fatal(err)
		}
	}
	answer := func() []Contact {
		resp, err := holder.HandleRPC("asker", getProvidersReq{From: mkContact(999), Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(getProvidersResp).Providers
	}
	addrs := func(cs []Contact) []netsim.NodeID {
		var out []netsim.NodeID
		for _, c := range cs {
			out = append(out, c.Addr)
		}
		return out
	}
	providers := func() []netsim.NodeID { return addrs(answer()) }
	arrival := []int{7, 3, 12, 0, 19, 5, 5, 3, 1, 18, 9, 14, 2, 11, 6, 17, 4, 8, 10, 13, 15, 16}
	var want []netsim.NodeID
	var early []Contact
	for i, p := range arrival {
		c := mkContact(p)
		announce(c)
		if !slices.Contains(want, c.Addr) && len(want) < maxProvidersPerKey {
			want = append(want, c.Addr)
		}
		if i == 4 {
			early = answer()
		}
	}
	slices.Sort(want)
	if got := providers(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("provider set %v, want %v", got, want)
	}
	if want := "[node-0 node-12 node-19 node-3 node-7]"; fmt.Sprint(addrs(early)) != want {
		t.Fatalf("a set answered after five announces reads %v later, want %v", addrs(early), want)
	}
	announce(mkContact(arrival[0])) // present, set full
	if got := providers(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after a repeat announce: provider set %v, want %v", got, want)
	}
}

func TestFindProvidersMissing(t *testing.T) {
	_, nodes := buildSwarm(t, 12, DefaultConfig())
	_, _, err := nodes[3].FindProviders(KeyOfString("no-providers"), 5)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSingleNodePutGet(t *testing.T) {
	net := netsim.New(netsim.DefaultConfig())
	n := NewNode(net, "solo", DefaultConfig())
	key := KeyOfString("k")
	if _, _, err := n.Put(key, []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := n.GetCtx(context.Background(), key)
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

// TestLookupWidensPastDeadTail: with the farther five of the K closest
// contacts a walker knows down, a walk still ends on K live contacts. Once
// the contacts it knows nearest have all been asked, whether the last
// round brought it closer or not, a walk holding fewer than K live answers
// widens into the rest of its routing table instead of stopping. Checked
// on both schedules: a converging (K-wide) FIND_NODE walk, and
// first-answer discovery in alpha-wide lock-step rounds.
func TestLookupWidensPastDeadTail(t *testing.T) {
	cfg := DefaultConfig()
	net, nodes := buildSwarm(t, 24, cfg)
	walker := nodes[0]
	for i := 0; i < 50; i++ {
		key := KeyOfString(fmt.Sprintf("widen-%d", i))
		dead := walker.rt.closest(key, cfg.K)[3:]
		for _, c := range dead {
			net.SetDown(c.Addr, true)
		}
		wide, _ := walker.lookupNodes(key)
		found, _, err := walker.FindProviders(key, 0)
		for _, c := range dead {
			net.SetDown(c.Addr, false)
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d: FindProviders err = %v, want ErrNotFound", i, err)
		}
		// A walk's closest set holds only contacts that answered.
		if len(wide.Closest) != cfg.K || len(found.Walk.Closest) != cfg.K {
			t.Fatalf("key %d: walks ended on %d (K-wide) and %d (alpha-wide) live contacts with %d nodes alive, want %d",
				i, len(wide.Closest), len(found.Walk.Closest), len(nodes)-1-len(dead), cfg.K)
		}
	}
}

func TestBootstrapPopulatesTable(t *testing.T) {
	_, nodes := buildSwarm(t, 30, DefaultConfig())
	for i, nd := range nodes {
		if nd.TableSize() < 3 {
			t.Fatalf("node %d table size = %d, want >= 3", i, nd.TableSize())
		}
	}
}

func TestStoreLocalVisibleToGet(t *testing.T) {
	_, nodes := buildSwarm(t, 8, DefaultConfig())
	key := KeyOfString("direct")
	nodes[4].StoreLocal(key, []byte("tampered"), 9)
	got, seq, _, err := nodes[4].GetCtx(context.Background(), key)
	if err != nil || string(got) != "tampered" || seq != 9 {
		t.Fatalf("local Get = %q seq=%d err=%v", got, seq, err)
	}
}

func TestPingUpdatesTables(t *testing.T) {
	net := netsim.New(netsim.DefaultConfig())
	a := NewNode(net, "a", DefaultConfig())
	b := NewNode(net, "b", DefaultConfig())
	if _, err := a.Ping(b.Self()); err != nil {
		t.Fatal(err)
	}
	if a.TableSize() != 1 || b.TableSize() != 1 {
		t.Fatalf("table sizes = %d,%d, want 1,1", a.TableSize(), b.TableSize())
	}
}

func TestLargeSwarmGetWithBucketRefresh(t *testing.T) {
	// At 256 nodes, sparse routing tables can point writer and reader
	// lookups at different "closest" sets; bucket refresh closes the gap.
	net := netsim.New(netsim.DefaultConfig())
	const n = 256
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(net, netsim.NodeID(fmt.Sprintf("big-%03d", i)), DefaultConfig())
	}
	for _, nd := range nodes[1:] {
		nd.Bootstrap([]Contact{nodes[0].Self()})
	}
	for _, nd := range nodes {
		nd.Bootstrap([]Contact{nodes[0].Self()})
		nd.RefreshBuckets(2)
	}
	key := KeyOfString("large-swarm-key")
	if _, _, err := nodes[1].Put(key, []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}
	// Every 8th node reads; all must find the value.
	for i := 2; i < n; i += 8 {
		got, _, _, err := nodes[i].GetCtx(context.Background(), key)
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if string(got) != "payload" {
			t.Fatalf("reader %d got %q", i, got)
		}
	}
}

// TestGetHolderNamesACurrentReplica: the holder Locate reports
// serves, by itself, the very record the quorum read returned — and a
// replica left behind on an older sequence is never the one named.
func TestGetHolderNamesACurrentReplica(t *testing.T) {
	net, nodes := buildSwarm(t, 20, DefaultConfig())
	key := KeyOfString("pointer")
	if _, _, err := nodes[3].Put(key, []byte("v1"), 1); err != nil {
		t.Fatal(err)
	}
	reader := nodes[17]
	ctx := context.Background()
	first, _, err := reader.Locate(ctx, key, nil)
	stale := first.Holder
	if err != nil || stale == (Contact{}) {
		t.Fatalf("holder = %+v err = %v", stale, err)
	}
	// The first holder misses the next write.
	net.SetDown(stale.Addr, true)
	if _, _, err := nodes[3].Put(key, []byte("v2"), 2); err != nil {
		t.Fatal(err)
	}
	net.SetDown(stale.Addr, false)

	loc, cost, err := reader.Locate(ctx, key, nil)
	holder := loc.Holder
	if err != nil || string(loc.Value) != "v2" || loc.Seq != 2 {
		t.Fatalf("Locate = %q seq=%d err=%v", loc.Value, loc.Seq, err)
	}
	if holder == (Contact{}) || holder == stale || holder.Addr == reader.Self().Addr {
		t.Fatalf("holder = %+v, want a remote replica other than the stale %s", holder, stale.Addr)
	}
	got, gotSeq, one, err := reader.GetFromCtx(ctx, holder, key)
	if err != nil || string(got) != "v2" || gotSeq != 2 {
		t.Fatalf("GetFromCtx(holder) = %q seq=%d err=%v", got, gotSeq, err)
	}
	if one.Msgs != 1 || one.Msgs >= cost.Msgs {
		t.Fatalf("single-replica read cost %+v against the walk's %+v, want one message", one, cost)
	}
	// The stale replica still answers — with the old record; telling the
	// two apart is the caller's job.
	if got, gotSeq, _, err := reader.GetFromCtx(ctx, stale, key); err != nil || string(got) != "v1" || gotSeq != 1 {
		t.Fatalf("GetFromCtx(stale) = %q seq=%d err=%v", got, gotSeq, err)
	}
}

// TestGetFromMissesAndFailures: a node without the record is
// ErrNotFound; a dead one fails fast and is marked failed like any
// other call; a cancelled call never reaches the peer and marks nothing.
func TestGetFromMissesAndFailures(t *testing.T) {
	net, nodes := buildSwarm(t, 20, DefaultConfig())
	key := KeyOfString("pointer")
	nodes[5].StoreLocal(key, []byte("only here"), 1)
	reader := nodes[9]
	ctx := context.Background()

	if _, _, cost, err := reader.GetFromCtx(ctx, nodes[6].Self(), key); !errors.Is(err, ErrNotFound) || cost.Msgs != 1 {
		t.Fatalf("empty node: err = %v cost = %+v, want ErrNotFound after one message", err, cost)
	}

	holder := nodes[5].Self()
	markedFailed := func() bool {
		b := &reader.rt.buckets[BucketIndex(reader.self.ID.XOR(holder.ID))]
		for _, e := range b.entries {
			if e.c.ID == holder.ID {
				return e.failed
			}
		}
		t.Fatal("holder not in the reader's routing table")
		return false
	}
	if _, _, _, err := reader.GetFromCtx(ctx, holder, key); err != nil {
		t.Fatal(err) // also refreshes the holder's table entry
	}

	net.SetDown(holder.Addr, true)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := reader.GetFromCtx(cancelled, holder, key); !errors.Is(err, netsim.ErrCancelled) {
		t.Fatalf("cancelled call: err = %v, want ErrCancelled", err)
	}
	if markedFailed() {
		t.Fatal("a cancelled call marked the holder failed")
	}
	if _, _, _, err := reader.GetFromCtx(ctx, holder, key); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("dead holder: err = %v, want a transport failure", err)
	}
	if !markedFailed() {
		t.Fatal("dead holder not marked failed")
	}
}

// TestWalkReuseNeedsConvergedWalk: provider discovery that never walked
// through to the K closest — answered from local records, or cut short
// once it knew enough providers — hands back no closest set, and an
// announce given such a walk walks for itself.
func TestWalkReuseNeedsConvergedWalk(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes := buildSwarm(t, 24, cfg)
	key := KeyOfString("popular-content")
	for i := 0; i < 10; i++ {
		if _, _, err := nodes[i].Provide(key); err != nil {
			t.Fatal(err)
		}
	}

	// Sort the non-providers by what they hold locally.
	var fetcher, holder *Node
	for _, nd := range nodes[10:] {
		nd.mu.Lock()
		held := len(nd.providers[key])
		nd.mu.Unlock()
		if held == 0 && fetcher == nil {
			fetcher = nd
		}
		if held >= 3 && holder == nil {
			holder = nd
		}
	}
	if fetcher == nil || holder == nil {
		t.Fatal("fixture needs one node without and one with local provider records")
	}

	// Cut short: three providers suffice long before the walk converges.
	res, cost, err := fetcher.FindProviders(key, 3)
	found := res.Walk
	if err != nil || len(res.All) != 3 || cost.Msgs == 0 {
		t.Fatalf("FindProviders = %v for %d msgs, err=%v", res.All, cost.Msgs, err)
	}
	if found.converged || found.Closest != nil || found.Key != key {
		t.Fatalf("a lookup cut short returned a reusable walk: %+v", found)
	}

	// Answered locally: a node holding the provider records pays nothing.
	res, cost, err = holder.FindProviders(key, 3)
	local := res.Walk
	if err != nil || cost.Msgs != 0 || res.FirstCost != (netsim.Cost{}) || len(res.First) != 3 {
		t.Fatalf("local answer cost %d msgs (first answer after %+v, %d providers), err=%v", cost.Msgs, res.FirstCost, len(res.First), err)
	}
	if local.converged || local.Closest != nil {
		t.Fatalf("a local answer returned a reusable walk: %+v", local)
	}

	// Either way the announce still lands on K nodes — by walking.
	announced, cost, err := fetcher.ProvideAt(found)
	if err != nil || len(announced) != cfg.K {
		t.Fatalf("ProvideAt announced %d, err=%v", len(announced), err)
	}
	if cost.Msgs <= cfg.K {
		t.Fatalf("ProvideAt on an unconverged walk cost %d msgs: it cannot have walked", cost.Msgs)
	}
}

// TestStoreRefusalIsNotAReplica: a replica that kept its newer record
// says so, and a write every replica refused is an error, not K stores.
func TestStoreRefusalIsNotAReplica(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes := buildSwarm(t, 16, cfg)
	key := KeyOfString("refused")
	if n, _, err := nodes[1].Put(key, []byte("new"), 5); err != nil || n != cfg.K {
		t.Fatalf("Put seq 5 = %d replicas, err=%v", n, err)
	}
	if n, cost, err := nodes[1].Put(key, []byte("old"), 3); err == nil || n != 0 || cost.Msgs == 0 {
		t.Fatalf("stale Put = %d replicas for %d msgs, err=%v; want 0 and an error", n, cost.Msgs, err)
	}
	// An equal sequence is a republish and is accepted.
	if n, _, err := nodes[1].Put(key, []byte("new"), 5); err != nil || n != cfg.K {
		t.Fatalf("republish at seq 5 = %d replicas, err=%v", n, err)
	}
	// A lone node, whose walk finds nobody, is its own one replica only
	// when it takes the write.
	_, lone := buildSwarm(t, 1, cfg)
	for _, w := range []struct {
		value    string
		seq      uint64
		replicas int
	}{{"new", 5, 1}, {"old", 3, 0}, {"new", 5, 1}} {
		n, _, err := lone[0].Put(key, []byte(w.value), w.seq)
		if n != w.replicas || (err == nil) != (w.replicas > 0) {
			t.Fatalf("lone node's Put at seq %d = %d replicas, err=%v; want %d", w.seq, n, err, w.replicas)
		}
	}
	if v, ok := lone[0].Local(key); !ok || string(v) != "new" {
		t.Fatalf("lone node holds %q (%v), want the newer record", v, ok)
	}
}
