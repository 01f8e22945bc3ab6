package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/oracle"
	"repro/internal/query"
)

// TestFetchSegmentSingleflight pins the frontend's dedup contract under
// concurrency: eight goroutines run the same cold multi-shard query on a
// fresh frontend. Pointer walks and chain loads on one frontend run one
// at a time, so the first wave to need one walks every pointer, fetches
// every distinct segment digest and merges every shard's chain once, and
// the other seven find the holders remembered and both caches warm. The
// network
// carries exactly what the same eight queries cost when run one after
// another on a twin cluster.
func TestFetchSegmentSingleflight(t *testing.T) {
	const clients = 8
	q := Query{Raw: "red apples orchard streets", Mode: PlanAny}

	seqC, seqFE := twoBatchCluster(t)
	before := seqC.Net.StatsSnapshot()
	var want SearchResponse
	for i := 0; i < clients; i++ {
		resp, err := seqFE.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want = resp
	}
	seqCalls := seqC.Net.StatsSnapshot().Calls - before.Calls

	c, fe := twoBatchCluster(t)
	before = c.Net.StatsSnapshot()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := fe.ExecuteCtx(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			if fmt.Sprint(resp.Results) != fmt.Sprint(want.Results) {
				t.Errorf("concurrent results %v, sequential %v", resp.Results, want.Results)
			}
		}()
	}
	wg.Wait()
	if calls := c.Net.StatsSnapshot().Calls - before.Calls; calls != seqCalls {
		t.Fatalf("%d concurrent queries sent %d msgs, the same queries in sequence %d", clients, calls, seqCalls)
	}

	// The chains behind the query's shards. A batch's segment lands in
	// the chain of every shard its terms hash to, so legs share digests:
	// one miss per distinct digest, a hit for every repeat, one chain
	// miss per shard, whoever ran first.
	shards := map[int]bool{}
	digests := map[string]bool{}
	refs := 0
	for _, term := range index.AnalyzeQuery(q.Raw) {
		s := index.ShardOf(term, c.Config().NumShards)
		if shards[s] {
			continue
		}
		shards[s] = true
		ptr, _, err := readShardPointer(fe.peer.DHT(), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ptr.Digests {
			digests[d] = true
			refs++
		}
	}
	if len(shards) < 2 || refs <= len(digests) {
		t.Fatalf("workload shape changed: %d shards, %d digests, %d references; need legs that share a digest",
			len(shards), len(digests), refs)
	}
	st := fe.CacheStatsSnapshot()
	if st.SegMisses != int64(len(digests)) || st.SegHits != int64(refs-len(digests)) {
		t.Errorf("segment cache %d misses / %d hits, want %d / %d", st.SegMisses, st.SegHits, len(digests), refs-len(digests))
	}
	if st.ChainMisses != int64(len(shards)) || st.ChainHits != int64((clients-1)*len(shards)) {
		t.Errorf("chain cache %d misses / %d hits, want %d / %d", st.ChainMisses, st.ChainHits, len(shards), (clients-1)*len(shards))
	}
	if seq := seqFE.CacheStatsSnapshot(); st != seq {
		t.Errorf("concurrent cache stats %+v, sequential %+v", st, seq)
	}
}

// TestQueryDocViewConcurrentRebuild: eight goroutines query a frontend
// whose document view went stale after warm-up — a page registered and a
// rank epoch finalized — so they race to rebuild it. Every response must
// equal the sequential answer of a second frontend on another peer,
// which sees the new page at its new rank.
func TestQueryDocViewConcurrentRebuild(t *testing.T) {
	const clients = 8
	c := smallCluster(t)
	owner := c.NewAccount("owner", 10_000)
	c.Seal()
	publish := func(url, text string, links ...string) {
		t.Helper()
		if _, err := c.Publish(owner, c.Peers[0], url, text, links); err != nil {
			t.Fatal(err)
		}
	}
	rank := func() {
		t.Helper()
		epoch := c.StartRankEpoch(2)
		c.RunUntilIdle(6)
		if re, ok := c.QB.RankEpochInfo(epoch); !ok || !re.Done {
			t.Fatalf("rank epoch %d not finalized: %+v", epoch, re)
		}
	}
	publish("dweb://hub", "the central hub of every spoke page")
	for _, u := range []string{"dweb://spoke/1", "dweb://spoke/2", "dweb://spoke/3"} {
		publish(u, "a spoke page linking to the hub", "dweb://hub")
	}
	c.Seal()
	c.RunUntilIdle(6)
	rank()

	queries := []Query{
		{Raw: "spoke page"},
		{Raw: "hub"},
		{Raw: "hub OR fresh", Mode: PlanAny},
		{Raw: "spoke site:dweb://spoke/"},
		{Raw: "page -site:dweb://hub"},
	}
	fe, ref := NewFrontend(c, c.Peers[3]), NewFrontend(c, c.Peers[4])
	answer := func(f *Frontend, q Query) (string, error) {
		resp, err := f.ExecuteCtx(context.Background(), q)
		return fmt.Sprintf("%+v total=%d ads=%v", resp.Results, resp.Total, resp.Ads), err
	}
	for _, f := range []*Frontend{fe, ref} {
		for _, q := range queries {
			if _, err := answer(f, q); err != nil {
				t.Fatal(err)
			}
		}
	}

	publish("dweb://spoke/4", "a fresh spoke page linking to the hub", "dweb://hub", "dweb://spoke/1")
	c.Seal()
	c.RunUntilIdle(6)
	rank()
	want := make([]string, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = answer(ref, q); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(want[0], "dweb://spoke/4") {
		t.Fatalf("the reference answer misses the page published after warm-up: %s", want[0])
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range queries {
				q := queries[(g+i)%len(queries)]
				got, err := answer(fe, q)
				if err != nil {
					t.Errorf("client %d %q: %v", g, q.Raw, err)
					return
				}
				if w := want[(g+i)%len(queries)]; got != w {
					t.Errorf("client %d %q:\nconcurrent %s\nsequential %s", g, q.Raw, got, w)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// twoBatchCluster indexes two pages in two batches, so the shards their
// shared terms hash to hold two-segment chains, and returns the cluster
// with a fresh frontend on Peers[3]. Every call builds the same cluster.
func twoBatchCluster(t *testing.T) (*Cluster, *Frontend) {
	t.Helper()
	c := smallCluster(t)
	owner := c.NewAccount("owner", 10_000)
	c.Seal()
	pages := []BatchPage{
		{URL: "dweb://q1", Text: "red apples grow on apple trees in the orchard"},
		{URL: "dweb://q2", Text: "red fire trucks race through the city streets"},
	}
	for _, p := range pages {
		if rr, err := c.IndexBatch(owner, []BatchPage{p}); err != nil || len(rr.Errors) > 0 {
			t.Fatalf("err=%v round errors=%v", err, rr.Errors)
		}
	}
	return c, NewFrontend(c, c.Peers[3])
}

// TestQueryDeterminismAcrossGOMAXPROCS: a query's simulated RPCs run on
// one goroutine, in shard order, so neither the scheduler nor the number
// of CPUs may reach what a query costs or what the frontend caches. Two
// boots at each of GOMAXPROCS 1, 2 and 8 — seed 1, a 256-page batch, a
// frontend on Peers[3], 120 three-term OR queries, a second batch, two
// more passes — must give every response the same results and cost, and
// end with the same cache counters and the same state on every node.
// Each query also runs through a hedged (paired) pool of 2, whose leg
// routing rests on round trips each frontend measured: its responses,
// and each frontend's served count, simulated busy time and caches, must
// agree too.
func TestQueryDeterminismAcrossGOMAXPROCS(t *testing.T) {
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = 512
	corp := corpus.Generate(ccfg)
	batches := make([][]BatchPage, 2)
	for i, d := range corp.Docs {
		batches[i/256] = append(batches[i/256], BatchPage{URL: d.URL, Text: d.Text, Links: d.Links})
	}
	queries := corp.Queries(1, 120, 3)

	boot := func() (trace, stats, digest string, total netsim.Cost) {
		c := NewCluster(DefaultConfig())
		owner := c.NewAccount("writer", 10_000_000)
		c.Seal()
		batch := func(pages []BatchPage) {
			if rr, err := c.IndexBatch(owner, pages); err != nil || len(rr.Errors) > 0 {
				t.Fatalf("err=%v round errors=%v", err, rr.Errors)
			}
		}
		var b []byte
		fe := NewFrontend(c, c.Peers[3])
		pool := NewFrontendPool(c, 2, true, 0)
		pass := func() {
			for _, q := range queries {
				resp, err := fe.ExecuteCtx(context.Background(), Query{Raw: q.Text, Mode: PlanAny})
				if err != nil {
					t.Fatalf("%q: %v", q.Text, err)
				}
				total.Msgs += resp.Cost.Msgs
				total.Bytes += resp.Cost.Bytes
				total.Latency += resp.Cost.Latency
				b = fmt.Appendf(b, "%q %+v %+v\n", q.Text, resp.Results, resp.Cost)
				presp, err := pool.ExecuteCtx(context.Background(), Query{Raw: q.Text, Mode: PlanAny})
				if err != nil {
					t.Fatalf("pool %q: %v", q.Text, err)
				}
				b = fmt.Appendf(b, "pool %+v %+v\n", presp.Results, presp.Cost)
			}
		}
		batch(batches[0])
		pass()
		batch(batches[1])
		pass()
		pass()
		return string(b), fmt.Sprintf("%+v %+v", fe.CacheStatsSnapshot(), pool.Stats()), clusterDigest(c), total
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantTrace, wantStats, wantDigest string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			trace, stats, digest, total := boot()
			if wantTrace == "" {
				wantTrace, wantStats, wantDigest = trace, stats, digest
				t.Logf("%d queries: %d msgs, %d bytes, %v simulated; cache %s",
					3*len(queries), total.Msgs, total.Bytes, total.Latency, stats)
				continue
			}
			if trace != wantTrace {
				t.Fatalf("GOMAXPROCS=%d run %d: responses diverged at\n%s", procs, run, firstDiff(trace, wantTrace))
			}
			if stats != wantStats {
				t.Fatalf("GOMAXPROCS=%d run %d: cache and pool stats %s, want %s", procs, run, stats, wantStats)
			}
			if digest != wantDigest {
				t.Fatalf("GOMAXPROCS=%d run %d: DHT state diverged: %s, want %s", procs, run, digest, wantDigest)
			}
		}
	}
}

// firstDiff returns the first line where two line-oriented traces differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestQueryChainViewHoldsOnlyItsShard: a level-0 run is a whole task
// segment, appended to every shard its terms reach, so after two publish
// rounds each shard's chain holds runs carrying every shard's terms. The
// frontend's cached view of a chain of two or more runs keeps only the
// terms that route to its shard, and a query per shard still answers as
// the oracle does.
func TestQueryChainViewHoldsOnlyItsShard(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	orc := oracle.New(cfg.RankWeight)
	first := make([]string, cfg.NumShards) // each shard's smallest term
	for round, pages := range corpusBatches(cfg.Seed, 2, 16) {
		if rr, err := c.IndexBatch(owner, pages); err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
		for _, p := range pages {
			orc.Publish(p.URL, p.Text)
			for _, tok := range index.Analyze(p.Text) {
				s := index.ShardOf(tok.Term, cfg.NumShards)
				if first[s] == "" || tok.Term < first[s] {
					first[s] = tok.Term
				}
			}
		}
	}

	fe := NewFrontend(c, c.Peers[2])
	multiRun := 0
	for shard, term := range first {
		if term == "" {
			t.Fatalf("no published term routes to shard %d", shard)
		}
		resp, err := fe.Search(term, 50)
		if err != nil {
			t.Fatalf("query %q: %v", term, err)
		}
		root, err := oracle.Flat(term, query.KindAnd)
		if err != nil {
			t.Fatal(err)
		}
		if diff := oracleDiff(resp, orc.Search(root, c.QB.PageRanks(), 0, 50)); diff != "" {
			t.Fatalf("shard %d query %q: %s", shard, term, diff)
		}
		ce, ok := fe.chainCache.Peek(shard)
		if !ok {
			t.Fatalf("shard %d: no cached view after a query", shard)
		}
		if !strings.Contains(ce.key, ",") {
			continue // a one-run chain is its own view
		}
		multiRun++
		for _, held := range ce.seg.TermsSorted() {
			if got := index.ShardOf(held, cfg.NumShards); got != shard {
				t.Fatalf("shard %d's view of a %d-run chain holds %q, which routes to shard %d",
					shard, strings.Count(ce.key, ",")+1, held, got)
			}
		}
	}
	if multiRun == 0 {
		t.Fatal("no shard holds a chain of two or more runs; the view restriction went unexercised")
	}
}

// TestFrontendCachesStayWithinBudget drives publish churn — every wave
// retires shard chains and mints new segment digests — against a
// frontend with deliberately tiny cache budgets, asserting the LRUs
// never exceed them while still serving hits.
func TestFrontendCachesStayWithinBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 10
	cfg.NumBees = 3
	// The segment budget is tiny to force digest eviction under churn;
	// the chain budget fits a handful of merged shards so warm queries
	// still hit.
	cfg.SegCacheBytes = 4 << 10
	cfg.ChainCacheBytes = 64 << 10
	c := NewCluster(cfg)
	fe := NewFrontend(c, c.Peers[1])

	alice := c.NewAccount("alice", 100_000)
	c.Seal()

	for wave := 0; wave < 6; wave++ {
		for d := 0; d < 4; d++ {
			url := fmt.Sprintf("dweb://churn-%d-%d", wave, d)
			text := fmt.Sprintf("churn document wave %d copy %d with shared apples and unique w%dd%d", wave, d, wave, d)
			if _, err := c.Publish(alice, c.Peers[0], url, text, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Seal()
		c.RunUntilIdle(6)
		if _, err := fe.ExecuteCtx(context.Background(), Query{Raw: "apples churn"}); err != nil {
			t.Fatal(err)
		}
		st := fe.CacheStatsSnapshot()
		if st.SegBytes > st.SegBudget {
			t.Fatalf("wave %d: segment cache %dB over its %dB budget", wave, st.SegBytes, st.SegBudget)
		}
		if st.ChainBytes > st.ChainBudget {
			t.Fatalf("wave %d: chain cache %dB over its %dB budget", wave, st.ChainBytes, st.ChainBudget)
		}
	}

	st := fe.CacheStatsSnapshot()
	if st.SegEntries == 0 && st.ChainEntries == 0 {
		t.Fatal("caches admitted nothing — budgets too small to be a meaningful test")
	}
	if st.SegMisses == 0 {
		t.Fatal("churn never missed the segment cache — eviction untested")
	}
	// Re-running the same query against the unchanged index is served
	// from the chain cache.
	warmBefore := fe.CacheStatsSnapshot().ChainHits
	if _, err := fe.ExecuteCtx(context.Background(), Query{Raw: "apples churn"}); err != nil {
		t.Fatal(err)
	}
	if fe.CacheStatsSnapshot().ChainHits <= warmBefore {
		t.Fatal("warm repeat query did not hit the chain cache")
	}
}

// TestLoadShardsParallelMatchesSequential: a wave over every shard must
// return exactly the segments that one-shard waves return on a fresh
// frontend, and send the same messages —
// the concurrency-determinism contract at the shard-wave level. The
// one-shard waves run on a twin cluster, so neither side finds the other's
// routing state warm.
func TestLoadShardsParallelMatchesSequential(t *testing.T) {
	c, fe := twoBatchCluster(t)
	shards := make([]int, 0, c.Config().NumShards)
	for s := 0; s < c.Config().NumShards; s++ {
		shards = append(shards, s)
	}

	// Cold wave over every shard.
	before := c.Net.StatsSnapshot().Calls
	got, _, err := fe.loadShardsCtx(reqBudget{}, 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	waveCalls := c.Net.StatsSnapshot().Calls - before
	// The twin, one shard per wave.
	c2, fe2 := twoBatchCluster(t)
	want := make(map[int]*index.Segment, len(shards))
	before = c2.Net.StatsSnapshot().Calls
	for _, s := range shards {
		segs, _, err := fe2.loadShardsCtx(reqBudget{}, 0, []int{s})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = segs[s]
	}
	if seqCalls := c2.Net.StatsSnapshot().Calls - before; seqCalls != waveCalls {
		t.Fatalf("wave sent %d msgs, one-shard waves %d", waveCalls, seqCalls)
	}
	if len(got) != len(want) {
		t.Fatalf("wave loaded %d shards, one-shard waves %d", len(got), len(want))
	}
	for s := range want {
		g, w := got[s].TermsSorted(), want[s].TermsSorted()
		if len(g) != len(w) {
			t.Fatalf("shard %d: %d terms in the wave vs %d alone", s, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("shard %d term %d: %q vs %q", s, i, g[i], w[i])
			}
		}
	}
}
