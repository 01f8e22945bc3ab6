package queenbee

import (
	"testing"

	"repro/internal/core"
)

// TestWarmChainViewsStayResident boots the deployment's shape at 10³
// pages (crawlEngine) and gives each of its four frontends a chain-cache
// budget between the two sizes its eight merged shard views have had:
// 1 107 095 B as views over their encodings, 5 231 196 B as decoded
// postings. Once every frontend holds a view of every shard
// (loadEveryFrontend) and a pass has been served warm
// (CacheStats.WarmSince: no pointer walk and no chain miss), the views
// all fit, so a repeated warm pass re-merges no chain.
func TestWarmChainViewsStayResident(t *testing.T) {
	const chainBudget = 2 << 20
	e, corp := crawlEngine(t, 1000, func(c *core.Config) { c.ChainCacheBytes = chainBudget })

	// 32 one-term queries over the most frequent words reach all 8 shards.
	words := make([]string, 32)
	for i := range words {
		words[i] = corp.Vocab(i)
	}
	pass := func() (before, after CacheStats) {
		before = e.CacheStats()
		for _, w := range words {
			if _, _, err := e.Search(w, 10); err != nil {
				t.Fatal(err)
			}
		}
		return before, e.CacheStats()
	}
	loadEveryFrontend(t, e, words)
	for warm := 0; ; warm++ {
		if before, after := pass(); after.WarmSince(before) {
			break
		}
		if warm == 8 {
			t.Fatal("every warm-up pass still walked for a shard pointer or missed the chain cache")
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
