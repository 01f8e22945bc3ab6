package queenbee

// The benchmark harness: micro-benchmarks for the ablations (A1
// intersection kernels, A3 replication, A4 segment merge policy) and the
// hot inner loops. The experiments themselves (E1–E19) run under
// internal/experiments' TestAllExperimentsProduceTables, which compares
// each one's tables at seed 1 with its golden.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/netsim"
	"repro/internal/rank"
	"repro/internal/xrand"
)

// --- micro-benchmarks -------------------------------------------------

func BenchmarkAnalyze(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 10
	corp := corpus.Generate(cfg)
	text := corp.Docs[0].Text
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Analyze(text)
	}
}

func BenchmarkSegmentBuild(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 50
	corp := corpus.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := index.NewBuilder(1)
		for _, d := range corp.Docs {
			builder.Add(index.DocIDOf(d.URL), d.Text)
		}
		builder.Build()
	}
}

func BenchmarkSegmentEncodeDecode(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 50
	corp := corpus.Generate(cfg)
	builder := index.NewBuilder(1)
	for _, d := range corp.Docs {
		builder.Add(index.DocIDOf(d.URL), d.Text)
	}
	seg := builder.Build()
	enc := seg.Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := seg.Encode()
		if _, err := index.DecodeSegment(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentMerge is ablation A4: building a shard's merged view
// from a long chain of delta segments (what query time pays without
// compaction) vs the single pre-merged segment (what compaction buys).
// Each iteration decodes the chain's encoded segments afresh and merges
// them, as a frontend's chain miss does; view_B is the view's SizeBytes,
// what the chain cache charges for it.
func BenchmarkSegmentMerge(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 64
	corp := corpus.Generate(cfg)
	for _, chainLen := range []int{2, 8, 32} {
		var encoded [][]byte
		per := len(corp.Docs) / chainLen
		for s := 0; s < chainLen; s++ {
			builder := index.NewBuilder(uint64(s + 1))
			for d := s * per; d < (s+1)*per; d++ {
				builder.Add(index.DocIDOf(corp.Docs[d].URL), corp.Docs[d].Text)
			}
			encoded = append(encoded, builder.Build().Encode())
		}
		b.Run(fmt.Sprintf("chain=%d", chainLen), func(b *testing.B) {
			b.ReportAllocs()
			segs := make([]*index.Segment, len(encoded))
			var view *index.Segment
			for i := 0; i < b.N; i++ {
				for j, data := range encoded {
					var err error
					if segs[j], err = index.DecodeSegment(data); err != nil {
						b.Fatal(err)
					}
				}
				view = index.Merge(segs)
			}
			b.ReportMetric(float64(view.SizeBytes()), "view_B")
		})
	}
}

// lookupBenchSegment builds a 5k-term segment for the lookup benchmarks:
// one document a term, each holding its term twice.
func lookupBenchSegment() *index.Segment {
	builder := index.NewBuilder(1)
	for i := 0; i < 5000; i++ {
		builder.Add(index.DocID(i+1), fmt.Sprintf("term%05d term%05d", i, i))
	}
	return builder.Build()
}

// BenchmarkSegmentLookupCold measures a one-term query against a freshly
// decoded 5k-term segment: decode + single lookup. The lazy format
// only parses the header and block index and decodes the one requested
// posting list, instead of materializing all 5k lists.
func BenchmarkSegmentLookupCold(b *testing.B) {
	enc := lookupBenchSegment().Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := index.DecodeSegment(enc)
		if err != nil {
			b.Fatal(err)
		}
		if pl := seg.Postings("term02500"); len(pl) != 1 {
			b.Fatalf("postings = %+v", pl)
		}
	}
}

// BenchmarkSegmentLookupWarm measures the memoized repeat lookup on an
// already-decoded segment.
func BenchmarkSegmentLookupWarm(b *testing.B) {
	seg, err := index.DecodeSegment(lookupBenchSegment().Encode())
	if err != nil {
		b.Fatal(err)
	}
	seg.Postings("term02500")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl := seg.Postings("term02500"); len(pl) != 1 {
			b.Fatalf("postings = %+v", pl)
		}
	}
}

// BenchmarkTopK covers both selection paths: k much smaller than the
// candidate set (bounded min-heap) and k covering the whole set (full
// sort).
func BenchmarkTopK(b *testing.B) {
	rng := xrand.New(3)
	docs := make([]index.ScoredDoc, 10_000)
	for i := range docs {
		docs[i] = index.ScoredDoc{Doc: index.DocID(i), Score: rng.Float64()}
	}
	for _, k := range []int{10, len(docs)} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := index.TopK(docs, k); len(got) != k {
					b.Fatalf("len = %d", len(got))
				}
			}
		})
	}
}

// BenchmarkIntersect is ablation A1 in isolation: merge vs gallop at a
// fixed 100:100k skew.
func BenchmarkIntersect(b *testing.B) {
	rng := xrand.New(1)
	long := make([]index.DocID, 100_000)
	v := index.DocID(0)
	for i := range long {
		v += index.DocID(1 + rng.Intn(2))
		long[i] = v
	}
	span := int(long[len(long)-1])
	short := make([]index.DocID, 100)
	v = 0
	for i := range short {
		v += index.DocID(1 + rng.Intn(span/100))
		short[i] = v
	}
	lists := [][]index.DocID{short, long}
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.IntersectMerge(lists)
		}
	})
	b.Run("gallop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.IntersectGallop(lists)
		}
	})
}

// BenchmarkDHTLookup measures iterative lookup cost (simulated swarm,
// real CPU): the routing path length is the quantity of interest.
func BenchmarkDHTLookup(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("swarm=%d", n), func(b *testing.B) {
			net := netsim.New(netsim.DefaultConfig())
			nodes := make([]*dht.Node, n)
			for i := range nodes {
				nodes[i] = dht.NewNode(net, netsim.NodeID(fmt.Sprintf("n%04d", i)), dht.DefaultConfig())
			}
			for _, nd := range nodes[1:] {
				nd.Bootstrap([]dht.Contact{nodes[0].Self()})
			}
			for _, nd := range nodes {
				nd.Bootstrap([]dht.Contact{nodes[0].Self()})
				nd.RefreshBuckets(2)
			}
			key := dht.KeyOfString("bench-key")
			if _, _, err := nodes[1].Put(key, []byte("value"), 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reader := nodes[2+i%(n-2)]
				if _, _, _, err := reader.GetCtx(context.Background(), key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPageRank(b *testing.B) {
	rng := xrand.New(1)
	for _, n := range []int{100, 1000} {
		links := make(map[string][]string, n)
		for i := 0; i < n; i++ {
			var out []string
			for j := 0; j < 1+rng.Intn(4); j++ {
				out = append(out, fmt.Sprintf("u%05d", rng.Intn(n)))
			}
			links[fmt.Sprintf("u%05d", i)] = out
		}
		g := rank.NewGraph(links)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rank.Compute(g, rank.DefaultOptions())
			}
		})
	}
}

// BenchmarkPublishPipeline measures the full creator path: store, chain,
// quorum indexing, materialization.
func BenchmarkPublishPipeline(b *testing.B) {
	e := New(WithSeed(1), WithPeers(12), WithBees(3))
	owner := e.NewAccount("bench-owner", 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("dweb://bench/%06d", i)
		if err := e.Publish(owner, url, fmt.Sprintf("benchmark document %d body content", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngest measures write-side round throughput as the bee pool
// grows: every iteration publishes a wave of pages (tasks spread across
// the pool's quorums) and drives rounds to completion. Two metrics
// matter, mirroring BenchmarkConcurrentSearch:
//
//   - sim_pages/s: pages indexed per simulated second of wave makespan —
//     the round engine's currency, where bees overlap their fetch/build
//     work and shards overlap their pointer writes;
//   - sim_speedup: the serial/wave latency ratio of the same rounds, the
//     write-side concurrency claim (≥2× at 8 bees, asserted by
//     TestIngestConcurrentThroughput).
func BenchmarkIngest(b *testing.B) {
	for _, bees := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("bees=%d", bees), func(b *testing.B) {
			e := New(WithSeed(1), WithPeers(12), WithBees(bees))
			owner := e.NewAccount("ingest-owner", 1<<40)
			const batch = 16
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			var serial, wave, pages int64
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					url := fmt.Sprintf("dweb://ingest/%06d", next)
					next++
					if _, err := e.Cluster.Publish(owner.acct, e.Cluster.RandomPeer(), url,
						fmt.Sprintf("ingest benchmark document %06d body content", next), nil); err != nil {
						b.Fatal(err)
					}
				}
				e.Cluster.Seal()
				for r := 0; r < 8; r++ {
					rr := e.RunRound()
					serial += int64(rr.Serial().Latency)
					wave += int64(rr.Wave().Latency)
					if open, _, _ := e.Cluster.QB.TaskCounts(); open == 0 {
						break
					}
				}
				pages += batch
			}
			b.StopTimer()
			if wave > 0 {
				b.ReportMetric(float64(pages)/(float64(wave)/1e9), "sim_pages/s")
				b.ReportMetric(float64(serial)/float64(wave), "sim_speedup")
			}
		})
	}
}

// BenchmarkIngestPipeline measures the streaming crawl pipeline end to
// end (fetch → extract → bounded queue → pipelined publish rounds) and
// reports simulated pages/s at the ISSUE's two operating points: 8 bees
// (commit-bound) and 64 bees (fetch-bound). Each iteration boots a
// fresh engine outside the timer and crawls a 256-page corpus.
func BenchmarkIngestPipeline(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 256
	cfg.MeanDocLen = 40
	corp := corpus.Generate(cfg)
	pages := make([]Page, len(corp.Docs))
	seeds := make([]string, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
		seeds[i] = d.URL
	}
	for _, bees := range []int{8, 64} {
		b.Run(fmt.Sprintf("bees=%d", bees), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var published int64
			var makespan, serialMakespan time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := New(WithSeed(1), WithPeers(12), WithBees(bees))
				owner := e.NewAccount("crawler", 1<<40)
				b.StartTimer()
				st, err := ingest.Crawl(context.Background(), ingest.MapSource(pages),
					ingest.NewClusterSink(e.Cluster, owner.acct), seeds, ingest.Options{
						Seed:         1,
						FetchWorkers: 8,
						QueueDepth:   8,
						BatchSize:    32,
					})
				if err != nil {
					b.Fatal(err)
				}
				published += int64(st.Published)
				makespan += st.Makespan
				serialMakespan += st.SerialMakespan
			}
			b.StopTimer()
			if makespan > 0 {
				b.ReportMetric(float64(published)/makespan.Seconds(), "sim_pages/s")
				b.ReportMetric(float64(serialMakespan)/float64(makespan), "sim_speedup")
			}
		})
	}
}

// BenchmarkCompaction measures the write path's steady-state compaction
// cost: 32 uniform publish rounds against a 4-shard index, reporting
// bytes rewritten per round and the run's cumulative write
// amplification. Tiered compaction must hold compacted_B/round flat —
// each ingested byte is rewritten about once per tier promotion, i.e.
// O(log rounds) (E19 sweeps it across run lengths).
func BenchmarkCompaction(b *testing.B) {
	const rounds, docsPerRound = 32, 16
	b.ReportAllocs()
	var ingested, compacted, compactions int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(WithSeed(1), WithPeers(10), WithBees(3), func(c *core.Config) { c.NumShards = 4 })
		owner := e.NewAccount("compact-owner", 1<<40)
		b.StartTimer()
		doc := 0
		for r := 0; r < rounds; r++ {
			pages := make([]Page, docsPerRound)
			for j := range pages {
				var links []string
				if doc > 0 {
					links = []string{fmt.Sprintf("dweb://compact/%05d", doc-1)}
				}
				pages[j] = Page{
					URL:   fmt.Sprintf("dweb://compact/%05d", doc),
					Text:  fmt.Sprintf("compaction benchmark corpus document %05d round %03d", doc, r),
					Links: links,
				}
				doc++
			}
			if _, err := e.PublishBatch(owner, pages); err != nil {
				b.Fatal(err)
			}
		}
		ws := e.WriteStats()
		ingested += ws.IngestedBytes
		compacted += ws.CompactedBytes
		compactions += int64(ws.Compactions)
	}
	b.StopTimer()
	b.ReportMetric(float64(compacted)/float64(int64(b.N)*rounds), "compacted_B/round")
	if ingested > 0 {
		b.ReportMetric(float64(ingested+compacted)/float64(ingested), "write_amp")
	}
	b.ReportMetric(float64(compactions)/float64(b.N), "compactions/run")
}

// BenchmarkSearch measures frontend query cost on a standing index.
func BenchmarkSearch(b *testing.B) {
	e := New(WithSeed(1), WithPeers(12), WithBees(3))
	owner := e.NewAccount("bench-owner", 1_000_000)
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 40
	corp := corpus.Generate(cfg)
	for _, d := range corp.Docs {
		if err := e.Publish(owner, d.URL, d.Text, d.Links); err != nil {
			b.Fatal(err)
		}
	}
	e.RunUntilIdle()
	queries := corp.Queries(1, 32, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Search(queries[i%len(queries)].Text, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// scalingCorpusEngine boots an engine holding an ndocs-document corpus
// ingested as ONE batch (one commit-reveal round → one segment per
// shard, so queries hit the lazy v3 block-max path, not a merged chain).
func scalingCorpusEngine(tb testing.TB, ndocs int) (*Engine, *corpus.Corpus) {
	tb.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = ndocs
	cfg.MeanDocLen = 40
	corp := corpus.Generate(cfg)
	pages := make([]Page, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
	}
	e := New(WithSeed(1), WithPeers(12), WithBees(3))
	owner := e.NewAccount("scaling-owner", 1<<40)
	if _, err := e.PublishBatch(owner, pages); err != nil {
		tb.Fatal(err)
	}
	e.RunUntilIdle()
	return e, corp
}

// BenchmarkSearchScaling measures top-10 query cost as the corpus grows
// 1× → 10× → 100× (48 → 4800 docs). The quantity of interest is how the
// scoring work scales: with block-max early termination the executor
// decodes only the blocks whose score bound can still beat the top-10
// threshold, so postings_scanned must grow far slower than the corpus
// (TestSearchScalingSublinear asserts ≤ 10× at 100×). blocks_skipped
// counts the skip pointers taken; sim_ms is the simulated network cost
// per query.
func BenchmarkSearchScaling(b *testing.B) {
	for _, ndocs := range []int{48, 480, 4800} {
		b.Run(fmt.Sprintf("docs=%d", ndocs), func(b *testing.B) {
			e, corp := scalingCorpusEngine(b, ndocs)
			queries := corp.Queries(7, 32, 1)
			b.ReportAllocs()
			b.ResetTimer()
			var scanned, skippedBlocks, simCost int64
			for i := 0; i < b.N; i++ {
				resp, err := e.Query(queries[i%len(queries)].Text).Limit(10).Run()
				if err != nil {
					b.Fatal(err)
				}
				scanned += resp.ScoreStats.PostingsScanned
				skippedBlocks += resp.ScoreStats.BlocksSkipped
				simCost += int64(resp.Cost.Latency)
			}
			b.StopTimer()
			b.ReportMetric(float64(scanned)/float64(b.N), "postings_scanned/op")
			b.ReportMetric(float64(skippedBlocks)/float64(b.N), "blocks_skipped/op")
			b.ReportMetric(float64(simCost)/float64(b.N)/1e6, "sim_ms/op")
		})
	}
}

// crawlDeployment boots queenbeed's -crawl deployment with maintenance
// off: a hedged pool of four frontends that serve degraded reads. Extra
// options append after that shape.
func crawlDeployment(extra ...Option) *Engine {
	return New(append([]Option{WithSeed(1), WithPeers(16), WithBees(4), WithFrontendPool(4),
		WithHedgedReads(true), WithDegradedReads(true)}, extra...)...)
}

// crawlWeb is a pages-page corpus (seed 1) as a crawlable web, every
// page a seed.
func crawlWeb(pages int) (corp *corpus.Corpus, web []Page, seeds []string) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = 1
	cfg.NumDocs = pages
	corp = corpus.Generate(cfg)
	web = make([]Page, 0, len(corp.Docs))
	seeds = make([]string, 0, len(corp.Docs))
	for _, d := range corp.Docs {
		web = append(web, Page{URL: d.URL, Text: d.Text, Links: d.Links})
		seeds = append(seeds, d.URL)
	}
	return corp, web, seeds
}

// crawlEngine is a crawlDeployment that has crawled a pages-page
// crawlWeb, indexed and ranked it.
func crawlEngine(tb testing.TB, pages int, extra ...Option) (*Engine, *corpus.Corpus) {
	tb.Helper()
	e := crawlDeployment(extra...)
	corp, web, seeds := crawlWeb(pages)
	owner := e.NewAccount("creator", 1_000_000)
	if _, err := e.Crawl(context.Background(), seeds, CrawlOptions{Owner: owner, Pages: web}); err != nil {
		tb.Fatal(err)
	}
	e.RunUntilIdle()
	e.ComputeRanks(4)
	return e, corp
}

// BenchmarkCrawlBoot is the in-process, low-noise twin of qbbench's
// crawl_cold/setup_s: Engine.Crawl over a 2 000-page crawlWeb into a
// fresh crawlDeployment (queenbeed's boot options, maintenance off).
// ns/op and allocs/op are one crawl's — extraction, dedup and every
// publish round — without the deployment's own boot; pages/s is pages
// published a wall-clock second.
func BenchmarkCrawlBoot(b *testing.B) {
	_, web, seeds := crawlWeb(2_000)
	published := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := crawlDeployment()
		owner := e.NewAccount("creator", 1_000_000)
		b.StartTimer()
		st, err := e.Crawl(context.Background(), seeds, CrawlOptions{Owner: owner, Pages: web})
		if err != nil {
			b.Fatal(err)
		}
		published += st.Published
	}
	b.ReportMetric(float64(published)/b.Elapsed().Seconds(), "pages/s")
}

// loadEveryFrontend runs each query once on every frontend of e's pool
// itself. A leg runs on the querying frontend until that frontend has
// measured the shard's pointer read, which loads the shard's view, so
// afterwards every frontend holds a view of every shard the queries
// touch. A pass through the balancer served warm (CacheStats.WarmSince)
// does not show that: it may have sent a frontend no query on some
// shard, and a frontend that reads a pointer from its own replica walks
// nothing even on its first load.
func loadEveryFrontend(tb testing.TB, e *Engine, queries []string) {
	tb.Helper()
	for i := 0; i < e.pool.Size(); i++ {
		for _, q := range queries {
			if _, err := e.pool.Frontend(i).Search(q, 10); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkSearchWarmCrawl measures warm top-10 queries in wall-clock
// time at the deployment's shape (crawlEngine) at 10³ and 10⁴ pages,
// over 32 one-term and 32 two-term queries. Every frontend loads every
// shard the queries touch (loadEveryFrontend) and three passes warm the
// engine first, and a timed loop that missed a chain view or walked for
// a pointer fails: ns/op is the CPU of parse, plan, one verified pointer
// read a shard, scoring and composition, not a cold load. -short skips
// 10⁴ pages.
func BenchmarkSearchWarmCrawl(b *testing.B) {
	for _, pages := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			if testing.Short() && pages > 1_000 {
				b.Skip("10⁴ pages boot outside -short")
			}
			e, corp := crawlEngine(b, pages)
			for _, terms := range []int{1, 2} {
				queries := corp.Queries(7, 32, terms)
				b.Run(fmt.Sprintf("terms=%d", terms), func(b *testing.B) {
					run := func(i int) {
						if _, err := e.Query(queries[i%len(queries)].Text).Limit(10).Run(); err != nil {
							b.Fatal(err)
						}
					}
					texts := make([]string, len(queries))
					for i, q := range queries {
						texts[i] = q.Text
					}
					loadEveryFrontend(b, e, texts)
					for i := 0; i < 3*len(queries); i++ {
						run(i)
					}
					before := e.CacheStats()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run(i)
					}
					b.StopTimer()
					if after := e.CacheStats(); !after.WarmSince(before) {
						b.Fatalf("the timed loop was not warm: %d chain misses, %d pointer walks",
							after.ChainMisses-before.ChainMisses, after.PtrWalks-before.PtrWalks)
					}
				})
			}
		})
	}
}

// BenchmarkConcurrentSearch measures serving throughput against one
// shared engine as the client count grows — plus a pooled serving-tier
// variant (pool=4, hedged). Every iteration runs each client's mixed
// workload (AND/OR/phrase/parsed/site:/paginated) on its own goroutine.
// The readings:
//
//   - sim_q/s: aggregate queries per simulated second — the serving
//     model's currency. For pool=1 the makespan is the slowest client
//     (concurrent clients overlap their network waves instead of
//     queueing behind a single driver: the ≥4×-at-8-clients claim);
//     for the pooled variant it is the busiest *frontend* (each
//     frontend serializes its own queries in simulated time), so
//     sim_speedup there is the pool's load-spread win.
//   - sim_p99_ms: the p99 simulated per-query latency — the tail that
//     hedged reads attack.
//   - ns/op wall time, which additionally tracks real contention on
//     the engine's caches, each frontend's load mutex (cold legs only)
//     and the netsim streams (and scales with cores, which CI runners
//     may have only one of).
func BenchmarkConcurrentSearch(b *testing.B) {
	shapes := []struct{ clients, pool int }{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {8, 4}}
	for _, sh := range shapes {
		name := fmt.Sprintf("clients=%d", sh.clients)
		var opts []Option
		if sh.pool > 1 {
			name += fmt.Sprintf("/pool=%d", sh.pool)
			opts = append(opts, WithFrontendPool(sh.pool), WithHedgedReads(true))
		}
		b.Run(name, func(b *testing.B) {
			e, corp := soakEngine(b, 3, 24, opts...)
			queriesPerClient := int64(len(soakWorkload(corp, 0)))
			var latMu sync.Mutex
			var lats []float64 // simulated ms per query
			b.ReportAllocs()
			b.ResetTimer()
			var simSerial, simConcurrent, queries int64
			for i := 0; i < b.N; i++ {
				perClient := make([]int64, sh.clients)
				var wg sync.WaitGroup
				for c := 0; c < sh.clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						var sum int64
						local := make([]float64, 0, queriesPerClient)
						for _, q := range soakWorkload(corp, c) {
							resp, err := q.run(e)
							if err != nil {
								b.Error(err)
								return
							}
							sum += int64(resp.Cost.Latency)
							local = append(local, float64(resp.Cost.Latency)/1e6)
						}
						perClient[c] = sum
						latMu.Lock()
						lats = append(lats, local...)
						latMu.Unlock()
					}(c)
				}
				wg.Wait()
				for _, s := range perClient {
					simSerial += s
				}
				simConcurrent += maxInt64(perClient)
				queries += int64(sh.clients) * queriesPerClient
			}
			b.StopTimer()
			if sh.pool > 1 {
				// The serving tier's own makespan: the busiest frontend,
				// accumulated over every iteration.
				var sum, busiest int64
				for _, f := range e.PoolStats().Frontends {
					sum += int64(f.BusySim)
					busiest = max(busiest, int64(f.BusySim))
				}
				simSerial, simConcurrent = sum, busiest
			}
			if simConcurrent > 0 {
				b.ReportMetric(float64(queries)/(float64(simConcurrent)/1e9), "sim_q/s")
				b.ReportMetric(float64(simSerial)/float64(simConcurrent), "sim_speedup")
			}
			if len(lats) > 0 {
				sort.Float64s(lats)
				b.ReportMetric(lats[len(lats)*99/100], "sim_p99_ms")
			}
		})
	}
}

func maxInt64(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// BenchmarkMinHash measures the scraper-defense signature cost.
func BenchmarkMinHash(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 2
	corp := corpus.Generate(cfg)
	text := corp.Docs[0].Text
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.SignatureOf(text)
	}
}
