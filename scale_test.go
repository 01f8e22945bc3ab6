package queenbee

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/oracle"
	"repro/internal/query"
)

// TestScaleMillion is the end-to-end write-path scaling run: crawl →
// index → rank → serve over a synthetic web, at a scale picked by
// environment:
//
//	default / -short        10^4 pages  (CI smoke; asserted memory ceiling)
//	QUEENBEE_SCALE_CI=1     10^5 pages  (nightly-sized CI job)
//	QUEENBEE_SCALE=1        10^6 pages  (the full million-document run;
//	                                     takes a long time — run by hand)
//
// The harness asserts exact ingest counts (failure and dedup are
// disabled so every generated page must land), delta rank epochs riding
// the crawl, a bounded write amplification per tier, and a per-page
// memory budget on the live engine. Up to 10^5 pages the probe queries'
// responses must equal the oracle's over the same pages, fed the
// engine's ranks after the closing full epoch.
func TestScaleMillion(t *testing.T) {
	pages := 10_000
	switch {
	case os.Getenv("QUEENBEE_SCALE") == "1":
		pages = 1_000_000
	case os.Getenv("QUEENBEE_SCALE_CI") == "1":
		pages = 100_000
	case testing.Short():
		// 10^4 is the floor; -short keeps it.
	}

	e, run := scaleRun(t, pages)

	// Memory budget: heap after the run with the engine still live,
	// amortized per page. The smoke scale carries a fixed-overhead
	// allowance (cluster boot, caches); the per-page slope is what must
	// not regress, or 10^6 stops fitting in a commodity machine. Budgets
	// calibrated with ~2× headroom over measurement.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	budget := uint64(256<<20) + uint64(pages)*20<<10 // 256 MiB + 20 KiB/page
	if ms.HeapAlloc > budget {
		t.Fatalf("heap after %d pages = %d MiB, budget %d MiB",
			pages, ms.HeapAlloc>>20, budget>>20)
	}
	t.Logf("scale=%d heap=%dMiB amp=%.2f epochs=%d tiers=%v",
		pages, ms.HeapAlloc>>20, run.write.Amplification(), run.ingest.RankEpochs, run.write.SegmentsPerTier)

	// The oracle keeps every page's positions in maps: past 10^5 pages
	// it would outweigh the engine it checks.
	if pages > 100_000 {
		return
	}
	o := oracle.New(core.DefaultConfig().RankWeight)
	for _, p := range scalePages(pages) {
		o.Publish(p.URL, p.Text)
	}
	ranks := e.Cluster.QB.PageRanks()
	for i, q := range scaleQueries() {
		root, err := oracle.Flat(q, query.KindAnd)
		if err != nil {
			t.Fatal(err)
		}
		if diff := oracleDiff(run.responses[i], o.Search(root, ranks, 0, 10)); diff != "" {
			t.Fatalf("query %q: %s", q, diff)
		}
	}
}

// scaleOutcome is what one scale run exposes for assertions.
type scaleOutcome struct {
	ingest    IngestStats
	write     WriteStats
	responses []core.SearchResponse // the probe queries', in order
}

// scaleRun drives one engine through the full pipeline at the given
// page count, probes it with deterministic queries, and returns it.
func scaleRun(t *testing.T, pages int) (*Engine, scaleOutcome) {
	t.Helper()
	e := New(WithSeed(42), WithPeers(10), WithBees(3), func(c *core.Config) { c.NumShards = 8 })

	web := scalePages(pages)
	owner := e.NewAccount("crawler", 1_000_000)
	st, err := ingest.Crawl(context.Background(), ingest.MapSource(web),
		ingest.NewClusterSink(e.Cluster, owner.acct), []string{web[0].URL}, ingest.Options{
			Seed:           e.Cluster.Config().Seed,
			BatchSize:      256,
			MaxPages:       pages,
			DedupThreshold: -1, // exact counts: no demotion
			FetchFailRate:  0,  // and no simulated fetch loss
			RankEvery:      8,  // a delta-scheduled epoch every 8 batches
			RankPartitions: 2,
		})
	if err != nil {
		t.Fatalf("crawl at scale %d: %v", pages, err)
	}
	if st.Published != pages || st.Fetched != pages {
		t.Fatalf("crawl landed %d/%d of %d pages", st.Published, st.Fetched, pages)
	}
	if st.RoundErrors != 0 {
		t.Fatalf("crawl surfaced %d round errors", st.RoundErrors)
	}
	if st.RankEpochs == 0 {
		t.Fatal("no rank epoch rode the crawl")
	}
	// Close the run with one FULL epoch — the exactness escape hatch.
	// The epochs that rode the crawl were delta-scheduled (that is the
	// cost win); the final full recompute zeroes their accumulated
	// drift, so the ranks the oracle is fed are the exact ones.
	e.ComputeRanks(2)
	if rs := e.RankStatus(); rs.LastFull != rs.Epoch || rs.DeltasSinceFull != 0 {
		t.Fatalf("closing full epoch did not reset staleness: %+v", rs)
	}

	ws := e.WriteStats()
	if ws.IngestedBytes == 0 || ws.Compactions == 0 {
		t.Fatalf("write ledger implausible at scale: %+v", ws)
	}
	// The write-amplification contract: tiered compaction rewrites each
	// ingested byte about once per level promotion (measured ~1.3× per
	// tier — the shard's share plus the DocLens tombstone set), so total
	// amplification is O(tiers) = O(log₄ rounds), never O(tiers×shards)
	// or a whole-chain merge's O(rounds). Asserted per tier with 2×
	// headroom; a regression to whole-chain or unrestricted rewrites
	// blows through it immediately at any scale.
	maxTier := len(ws.SegmentsPerTier) - 1
	if bound := 1 + 2*float64(maxTier); ws.Amplification() > bound {
		t.Fatalf("write amplification %.2f exceeds the tiered bound %.1f at %d tiers (ledger %+v)",
			ws.Amplification(), bound, maxTier, ws)
	}

	out := scaleOutcome{ingest: st, write: ws}
	for _, q := range scaleQueries() {
		resp, err := e.Query(q).All().Limit(10).Run()
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(resp.Results) == 0 {
			t.Fatalf("query %q found nothing in a %d-page index", q, pages)
		}
		out.responses = append(out.responses, *resp)
	}
	return e, out
}

// scaleWords is the vocabulary of the scale generator; small enough
// that queries hit everywhere, spread enough that every shard fills.
var scaleWords = []string{
	"honey", "nectar", "forage", "waggle", "swarm", "queen", "worker", "drone",
	"comb", "hive", "pollen", "clover", "meadow", "orchard", "cedar", "willow",
	"bramble", "thistle", "sage", "fennel", "yarrow", "sorrel", "vetch", "rue",
}

// scalePages generates n pages in O(1) per page: deterministic text
// drawn from a fixed vocabulary and a shallow link pattern (each page
// links to a recent page and to one of a few hubs, giving the rank
// vector real skew without the O(n²) preferential-attachment walk the
// corpus generator pays).
func scalePages(n int) []Page {
	pages := make([]Page, n)
	for i := 0; i < n; i++ {
		w := func(k int) string { return scaleWords[(i*7+k*13)%len(scaleWords)] }
		var links []string
		if i+1 < n {
			links = append(links, scaleURL(i+1)) // forward chain: the frontier reaches everything from page 0
		}
		if i > 0 {
			links = append(links, scaleURL(i%16)) // a few early hubs dominate the rank
			if i%97 == 3 {
				links = append(links, scaleURL(i/2)) // occasional long-range edge
			}
		}
		pages[i] = Page{
			URL: scaleURL(i),
			// Two anchor terms every page carries (serving probes with
			// full-corpus postings) plus three rotating terms that spread
			// the vocabulary over every shard.
			Text:  fmt.Sprintf("honey hive %s %s %s page %d", w(0), w(1), w(2), i),
			Links: links,
		}
	}
	return pages
}

func scaleURL(i int) string { return fmt.Sprintf("dweb://scale/%07d", i) }

// scaleQueries are the serving probes: the anchor pair hits every page
// (the heaviest postings the index holds), the single terms hit the
// rotating slices.
func scaleQueries() []string {
	return []string{"honey hive", "meadow", "queen", "bramble"}
}
