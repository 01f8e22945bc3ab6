package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// TestPoolBalancerDeterministicLeastLoaded: under a sequential driver
// (in-flight always zero) the balancer is least-simulated-busy with a
// round-robin cursor — the same cost sequence yields the same
// assignment sequence every run.
func TestPoolBalancerDeterministicLeastLoaded(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 3, false, 0)
	for i := 0; i < 9; i++ {
		if _, err := pool.ExecuteCtx(context.Background(), Query{Raw: "red apples", Mode: PlanAll, Limit: 5}); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	var total int64
	for i, f := range st.Frontends {
		if f.Served == 0 {
			t.Fatalf("frontend %d served nothing: %+v", i, st.Frontends)
		}
		if f.InFlight != 0 {
			t.Fatalf("frontend %d still in flight after a sequential drive", i)
		}
		total += f.Served
	}
	if total != 9 {
		t.Fatalf("served %d queries, want 9", total)
	}
}

// TestPoolHedgeRescuesTamperedReplica: the hedged leg is the wave's
// failed leg, so a segment replica tampered on the primary frontend's
// own peer — hash verification fails there — is rescued by the buddy's
// clean fetch and the query succeeds with full results.
func TestPoolHedgeRescuesTamperedReplica(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 2, true, 0)
	primary := pool.Frontend(0)

	// Locate the single shard behind "orchard" and tamper its segment
	// replica locally on the primary's peer. GetImmutable serves the
	// local replica first, so the primary's fetch sees garbage and
	// fails the digest check; the buddy (a different peer) reads a
	// clean replica.
	shard := index.ShardOf("orchard", c.Config().NumShards)
	ptr, _, err := readShardPointer(primary.peer.DHT(), shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(ptr.Digests) == 0 {
		t.Fatal("orchard's shard has no segments")
	}
	primary.peer.DHT().StoreLocal(
		dht.KeyOfString(index.SegmentKey(ptr.Digests[0])), []byte("tampered"), 0)

	// Unhedged control: the same tampered frontend alone fails loudly.
	alone := NewFrontend(c, primary.peer)
	if _, err := alone.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("unhedged tampered frontend: err = %v, want ErrShardUnavailable", err)
	}

	// Hedged pool: frontend 0 serves the first query, its leg fails,
	// the hedge reruns it on frontend 1 and the wave succeeds.
	resp, err := pool.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll})
	if err != nil {
		t.Fatalf("hedge did not rescue the tampered leg: %v", err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("rescued query returned no results")
	}
	if got := pool.Frontend(0).hedges.Load(); got == 0 {
		t.Fatal("no hedge recorded for the rescued wave")
	}
	// The buddy's serving time was billed for the duplicate.
	if busy := pool.Stats().Frontends[1].BusySim; busy == 0 {
		t.Fatalf("hedge time not billed to the buddy: %+v", pool.Stats().Frontends)
	}
}

// TestPoolDefaultDeadlineApplies: queries inherit the pool's default
// deadline, an explicit Query.Deadline overrides it, and only real
// deadline misses count (see ExecuteCtx).
func TestPoolDefaultDeadlineApplies(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 1, false, time.Millisecond)
	if _, err := pool.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("default deadline not applied: %v", err)
	}
	if _, err := pool.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll, Deadline: time.Hour}); err != nil {
		t.Fatalf("explicit deadline should override the default: %v", err)
	}
	if misses := pool.Stats().DeadlineMisses; misses != 1 {
		t.Fatalf("deadline misses = %d, want 1", misses)
	}
}

// TestPoolLegRouting: on a hedged pool of 2, once both devices have
// measured a shard, its leg runs on exactly one of them — the one whose
// last verified pointer read was faster, the querying frontend on a tie
// — so a warm query sends one RPC per distinct shard and hedges nothing,
// with the answer a lone unhedged frontend gives. A leg that fails on
// its device is rescued on the other and pays for both attempts; a
// holder re-learned by a walk forgets its measurement, so the next wave
// hedges once to measure it again. The cluster has more nodes than K,
// so each device remembers its own nearest replica of a pointer.
func TestPoolLegRouting(t *testing.T) {
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = 128
	corp := corpus.Generate(ccfg)
	var pages []BatchPage
	for _, d := range corp.Docs {
		pages = append(pages, BatchPage{URL: d.URL, Text: d.Text, Links: d.Links})
	}
	c := NewCluster(DefaultConfig())
	owner := c.NewAccount("writer", 10_000_000)
	c.Seal()
	if rr, err := c.IndexBatch(owner, pages); err != nil || len(rr.Errors) > 0 {
		t.Fatalf("err=%v round errors=%v", err, rr.Errors)
	}
	var queries []string
	for n := 1; n <= 3; n++ {
		for _, q := range corp.Queries(uint64(n), 20, n) {
			queries = append(queries, q.Text)
		}
	}

	ctx := context.Background()
	pool := NewFrontendPool(c, 2, true, 0)
	ref := NewFrontend(c, c.Peers[5])
	want := make([]SearchResponse, len(queries))
	for i, q := range queries {
		resp, err := ref.ExecuteCtx(ctx, Query{Raw: q, Mode: PlanAny})
		if err != nil {
			t.Fatalf("unhedged %q: %v", q, err)
		}
		want[i] = resp
	}
	shardsOf := func(i int) []int {
		set := map[int]bool{}
		for _, term := range want[i].Terms {
			set[index.ShardOf(term, c.Config().NumShards)] = true
		}
		out := make([]int, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Ints(out)
		return out
	}
	// Query i runs on frontend i mod 2; its buddy is the other one.
	run := func(i int) SearchResponse {
		t.Helper()
		resp, err := pool.Frontend(i%2).ExecuteCtx(ctx, Query{Raw: queries[i], Mode: PlanAny})
		if err != nil {
			t.Fatalf("%q: %v", queries[i], err)
		}
		if !reflect.DeepEqual(resp.Results, want[i].Results) {
			t.Fatalf("%q: results %+v, unhedged frontend %+v", queries[i], resp.Results, want[i].Results)
		}
		return resp
	}
	hedges := func() int64 { return pool.Frontend(0).hedges.Load() + pool.Frontend(1).hedges.Load() }
	warmUp := func() {
		t.Helper()
		for pass := 0; ; pass++ {
			if pass == 10 {
				t.Fatal("still hedging after 10 passes")
			}
			before := hedges()
			for i := range queries {
				run(i)
			}
			if hedges() == before {
				return
			}
		}
	}
	// chosen is the device that runs shard s's leg of a query on
	// frontend i, and the other device of the pair.
	chosen := func(i, s int) (dev, other *Frontend) {
		here, there := pool.Frontend(i%2), pool.Frontend(1-i%2)
		if here.rtt(s) == 0 || there.rtt(s) == 0 {
			t.Fatalf("shard %d unmeasured after warm-up: %v here, %v on the buddy", s, here.rtt(s), there.rtt(s))
		}
		if there.rtt(s) < here.rtt(s) {
			return there, here
		}
		return here, there
	}
	holder := func(f *Frontend, s int) ptrMemo {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.ptrHolder[s]
	}
	addr := func(f *Frontend) netsim.NodeID { return f.peer.DHT().Self().Addr }

	warmUp()
	routed := map[*Frontend]int{}
	for i := range queries {
		wantVerified := map[*Frontend]int64{}
		for _, s := range shardsOf(i) {
			dev, _ := chosen(i, s)
			wantVerified[dev]++
		}
		before := pool.Stats()
		resp := run(i)
		after := pool.Stats()
		if n := len(shardsOf(i)); resp.Cost.Msgs != n {
			t.Fatalf("%q: warm query sent %d msgs for %d shards", queries[i], resp.Cost.Msgs, n)
		}
		for j, fl := range after.Frontends {
			f := pool.Frontend(j)
			if got := fl.Cache.PtrVerified - before.Frontends[j].Cache.PtrVerified; got != wantVerified[f] {
				t.Fatalf("%q: frontend %d ran %d legs, want %d (the lower measurement)", queries[i], j, got, wantVerified[f])
			}
			if fl.Hedges != before.Frontends[j].Hedges || fl.Cache.PtrWalks != before.Frontends[j].Cache.PtrWalks {
				t.Fatalf("%q: a warm routed wave hedged or walked: %+v → %+v", queries[i], before.Frontends[j], fl)
			}
			routed[f] += int(wantVerified[f])
		}
	}
	t.Logf("warm legs routed: %d to frontend 0, %d to frontend 1", routed[pool.Frontend(0)], routed[pool.Frontend(1)])

	// A one-shard query whose chosen device is taken off the network. Its
	// memo RPC and its walk fail, so the leg fails there and is retried
	// on the other device. The device must hold no copy of the pointer
	// (its walk would read that), and the other device's holder must not
	// be the isolated peer.
	rescued := false
	for i := range queries {
		ss := shardsOf(i)
		if len(ss) != 1 {
			continue
		}
		s := ss[0]
		dev, other := chosen(i, s)
		key := dht.KeyOfString(index.ShardPointerKey(s))
		if _, _, _, err := dev.peer.DHT().GetFromCtx(ctx, dev.peer.DHT().Self(), key); err != dht.ErrNotFound {
			continue
		}
		if holder(other, s).holder.Addr == addr(dev) {
			continue
		}
		before := other.CacheStatsSnapshot()
		hedged := hedges()
		c.Net.SetDown(addr(dev), true)
		resp := run(i)
		c.Net.SetDown(addr(dev), false)
		if other.CacheStatsSnapshot().PtrVerified != before.PtrVerified+1 {
			t.Fatalf("%q: the other device did not answer the rescue with one verified read", queries[i])
		}
		retry := holder(other, s).rtt // the rescue's read, measured
		if resp.Cost.Msgs < 2 || resp.Cost.Latency <= retry {
			t.Fatalf("%q: rescued leg cost %+v, want the failed attempt plus the retry (%v, 1 msg)", queries[i], resp.Cost, retry)
		}
		if hedges() != hedged {
			t.Fatalf("%q: a rescue counted as a hedge", queries[i])
		}
		if holder(dev, s) != (ptrMemo{}) {
			t.Fatalf("%q: the isolated device kept a holder its walk could not confirm", queries[i])
		}
		rescued = true
		break
	}
	if !rescued {
		t.Fatal("no one-shard query whose chosen device can be isolated")
	}

	// A one-shard query whose chosen device's holder goes down: the leg
	// walks on that device and re-learns a holder with no measurement, so
	// the next wave hedges once, and the one after is routed again. The
	// holder is back up before the next wave: it may be the other
	// device's holder, or the other device itself.
	warmUp()
	relearned := false
	for i := range queries {
		ss := shardsOf(i)
		if len(ss) != 1 {
			continue
		}
		s := ss[0]
		dev, _ := chosen(i, s)
		h := holder(dev, s).holder
		c.Net.SetDown(h.Addr, true)
		walks := dev.CacheStatsSnapshot().PtrWalks
		run(i)
		c.Net.SetDown(h.Addr, false)
		if m := holder(dev, s); dev.CacheStatsSnapshot().PtrWalks != walks+1 || m.holder == h || m.rtt != 0 {
			t.Fatalf("%q: after its holder went down the device remembers %+v, want a new unmeasured holder", queries[i], m)
		}
		hedged := hedges()
		run(i)
		if got := hedges() - hedged; got != 1 {
			t.Fatalf("%q: the wave after a re-learned holder hedged %d times, want 1", queries[i], got)
		}
		if resp := run(i); resp.Cost.Msgs != 1 || hedges() != hedged+1 {
			t.Fatalf("%q: measured again, the wave cost %+v and hedged %d times", queries[i], resp.Cost, hedges()-hedged-1)
		}
		relearned = true
		break
	}
	if !relearned {
		t.Fatal("no one-shard query")
	}
}
