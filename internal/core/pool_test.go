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

// TestPoolAcquireProjectsOwnCost: the in-flight term of the projected
// finish is a frontend's mean cost over its own queries. Legs it ran for
// its buddy's queries count in its busy time but not in what it served,
// so they must not inflate that mean and starve it of queries.
func TestPoolAcquireProjectsOwnCost(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 2, true, 0)
	serve := func(i int, d time.Duration) {
		pool.mu.Lock()
		pool.inflight[i]++
		pool.mu.Unlock()
		pool.release(i, netsim.Cost{Latency: d}, false)
	}
	for q := 0; q < 10; q++ {
		serve(0, 10*time.Millisecond)
		serve(1, 31500*time.Microsecond)
	}
	pool.fronts[1].hedgeBill(200 * time.Millisecond) // frontend 0 ran legs of frontend 1's queries
	// Busy 300 ms at an own mean of 10 ms, against 315 ms with nothing
	// in flight.
	pick := func(inflight0 int) int {
		pool.mu.Lock()
		pool.inflight[0], pool.inflight[1] = inflight0, 0
		pool.mu.Unlock()
		i := pool.acquire()
		pool.mu.Lock()
		pool.inflight[i]--
		pool.mu.Unlock()
		return i
	}
	if i := pick(1); i != 0 {
		t.Fatalf("one query in flight on frontend 0 (300 + 10 ms projected) sent the next to frontend %d (315 ms)", i)
	}
	if i := pick(2); i != 1 {
		t.Fatalf("two queries in flight on frontend 0 (300 + 20 ms projected) sent the next to frontend %d, want 1 (315 ms)", i)
	}
}

// TestPoolDrainForfeitsIdleCredit: a sequential driver keeps the
// least-busy schedule, so a frontend left behind takes the next queries
// until it catches up. Once queries have overlapped, a drained pool
// lifts every frontend's balancing load to the highest, and the laggard
// no longer takes them all; BusySim keeps what each frontend served.
func TestPoolDrainForfeitsIdleCredit(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 2, false, 0)
	ms := time.Millisecond
	run := func(d time.Duration) int {
		i := pool.acquire()
		pool.release(i, netsim.Cost{Latency: d}, false)
		return i
	}
	for q := 0; q < 40; q++ { // frontend 0 is 400 ms behind
		pool.mu.Lock()
		pool.inflight[1]++
		pool.mu.Unlock()
		pool.release(1, netsim.Cost{Latency: 10 * ms}, false)
	}
	for q := 0; q < 3; q++ {
		if i := run(10 * ms); i != 0 {
			t.Fatalf("sequential query %d went to frontend %d, want the least busy, 0", q, i)
		}
	}
	a, b := pool.acquire(), pool.acquire() // two in flight at once
	pool.release(a, netsim.Cost{Latency: 10 * ms}, false)
	pool.release(b, netsim.Cost{Latency: 10 * ms}, false)
	if x, y := run(10*ms), run(10*ms); x == y {
		t.Fatalf("after the pool drained, two queries both went to frontend %d", x)
	}
	var sum time.Duration
	for _, f := range pool.Stats().Frontends {
		sum += f.BusySim
	}
	if want := 400*ms + 7*10*ms; sum != want {
		t.Fatalf("BusySim sums to %v, want %v served", sum, want)
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
// — so a warm query hedges nothing and sends one RPC per distinct shard,
// none for a shard either device holds a current replica of (it is read
// there, for free), with the answer a lone unhedged frontend gives. A
// measurement is a flag, not a non-zero rtt. A leg that fails on
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
		hrtt, hok := here.rtt(s)
		trtt, tok := there.rtt(s)
		if !hok || !tok {
			t.Fatalf("shard %d unmeasured after warm-up: %v (%v) here, %v (%v) on the buddy", s, hrtt, hok, trtt, tok)
		}
		if trtt < hrtt {
			return there, here
		}
		return here, there
	}
	// local reports whether f's own DHT node holds a current pointer for
	// shard s, which f reads without an RPC.
	local := func(f *Frontend, s int) bool {
		val, ok := f.peer.DHT().Local(pointerKey(s))
		if !ok {
			return false
		}
		ptr, err := decodeShardPointer(val)
		return err == nil && ptr.currentAt(c.QB.IndexGen())
	}
	holder := func(f *Frontend, s int) ptrMemo {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.ptrHolder[s]
	}
	addr := func(f *Frontend) netsim.NodeID { return f.peer.DHT().Self().Addr }

	warmUp()
	routed := map[*Frontend]int{}
	localLegs := 0
	for i := range queries {
		wantVerified := map[*Frontend]int64{}
		remote := 0
		for _, s := range shardsOf(i) {
			dev, other := chosen(i, s)
			wantVerified[dev]++
			switch {
			case local(dev, s):
				if rtt, _ := dev.rtt(s); rtt != 0 {
					t.Fatalf("%q: shard %d held on its device measured %v, want a free read", queries[i], s, rtt)
				}
				localLegs++
			case local(other, s):
				t.Fatalf("%q: shard %d held on %s was routed to the other device", queries[i], s, addr(other))
			default:
				remote++
			}
		}
		before := pool.Stats()
		resp := run(i)
		after := pool.Stats()
		if resp.Cost.Msgs != remote {
			t.Fatalf("%q: warm query sent %d msgs for %d shards held on neither device", queries[i], resp.Cost.Msgs, remote)
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
	t.Logf("warm legs routed: %d to frontend 0, %d to frontend 1, %d of them read on the device", routed[pool.Frontend(0)], routed[pool.Frontend(1)], localLegs)
	if localLegs == 0 {
		t.Fatal("no leg was read from a device's own replica")
	}

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
		if _, held := dev.peer.DHT().Local(pointerKey(s)); held {
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
		retry, _ := other.rtt(s) // the rescue's read, measured
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
		if local(dev, s) {
			continue
		}
		h := holder(dev, s).holder
		c.Net.SetDown(h.Addr, true)
		walks := dev.CacheStatsSnapshot().PtrWalks
		run(i)
		c.Net.SetDown(h.Addr, false)
		if m := holder(dev, s); dev.CacheStatsSnapshot().PtrWalks != walks+1 || m.holder == h || m.measured {
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
