package queenbee

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// TestWarmChainViewsStayResident boots the deployment's shape — a
// crawled 10³-page corpus served by a hedged pool of four frontends — and
// gives each frontend a chain-cache budget between the two sizes its
// eight merged shard views have had: 1 107 095 B as views over their
// encodings, 5 231 196 B as decoded postings. Once every frontend has
// read every shard it serves (a pass with no pointer walk), the views
// all fit, so a repeated warm pass re-merges no chain.
func TestWarmChainViewsStayResident(t *testing.T) {
	const chainBudget = 2 << 20
	e := New(WithSeed(1), WithPeers(16), WithBees(4), WithFrontendPool(4), WithHedgedReads(true),
		func(c *core.Config) { c.ChainCacheBytes = chainBudget })
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 1000
	corp := corpus.Generate(cfg)
	pages := make([]Page, 0, len(corp.Docs))
	seeds := make([]string, 0, len(corp.Docs))
	for _, d := range corp.Docs {
		pages = append(pages, Page{URL: d.URL, Text: d.Text, Links: d.Links})
		seeds = append(seeds, d.URL)
	}
	owner := e.NewAccount("creator", 1_000_000)
	if _, err := e.Crawl(context.Background(), seeds, CrawlOptions{Owner: owner, Pages: pages}); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	e.ComputeRanks(4)

	// 32 one-term queries over the most frequent words reach all 8 shards.
	pass := func() (before, after CacheStats) {
		before = e.CacheStats()
		for i := 0; i < 32; i++ {
			if _, _, err := e.Search(corp.Vocab(i), 10); err != nil {
				t.Fatal(err)
			}
		}
		return before, e.CacheStats()
	}
	for warm := 0; ; warm++ {
		if before, after := pass(); after.PtrWalks == before.PtrWalks {
			break
		}
		if warm == 8 {
			t.Fatal("every warm-up pass still walked for a shard pointer")
		}
	}
	before, after := pass()
	if misses := after.ChainMisses - before.ChainMisses; misses != 0 {
		for i, f := range e.PoolStats().Frontends {
			t.Logf("frontend %d: %d chain views, %d B", i, f.Cache.ChainEntries, f.Cache.ChainBytes)
		}
		t.Fatalf("a repeated warm pass missed the chain cache %d times (budget %d B a frontend)", misses, chainBudget)
	}
}
