package queenbee

import (
	"context"

	"repro/internal/ingest"
)

// IngestStats is the streaming pipeline's counter/timing snapshot:
// fetched, deduped, published, queue depth/wait, round phase busy
// times, simulated makespan, and the derived sim pages/s and pipelining
// speedup (see docs/ingest.md).
type IngestStats = ingest.Stats

// CrawlOptions says who crawls and what web there is. The pipeline's
// knobs (fetcher parallelism, queue depth, batch size, dedup, rank
// cadence) keep the ingest package defaults; a caller that needs other
// values drives ingest.Crawl with ingest.NewClusterSink.
type CrawlOptions struct {
	// Owner publishes every crawled batch. Nil creates and funds a
	// "crawler" account for this crawl.
	Owner *Account
	// Pages is the crawlable web: URLs resolve against this set, links
	// walk it. Links pointing outside it count as dangling.
	Pages []Page
}

// Crawl runs the streaming ingest loop against this deployment, on the
// caller's goroutine (only page extraction, which is pure, runs ahead of
// it on other CPUs): it walks the link graph from seeds, extracts pages
// and demotes near-duplicates, and indexes accepted pages through real
// publish rounds in ingest.DefaultBatchSize batches. Fetcher
// parallelism, the bounded queue and batch N+1's commit overlapping
// round N's reveal are costed in the simulated-time model that fills
// IngestStats. The randomness seed is the deployment's (WithSeed), so a
// crawl is a pure function of the engine configuration, the page set
// and the seeds: it leaves the DHT byte-identical to a sequential
// PublishBatch loop over the same pages.
//
// Crawl is a mutating method — like Publish and Run it must not run
// concurrently with other mutations or with queries. Cancelling ctx
// stops the crawl before the next page is fetched and returns ctx's
// error with the exact partial stats.
// Successful or not, the crawl's counters accumulate into IngestStats.
func (e *Engine) Crawl(ctx context.Context, seeds []string, o CrawlOptions) (IngestStats, error) {
	owner := o.Owner
	if owner == nil {
		owner = e.NewAccount("crawler", 1_000_000)
	}
	st, err := ingest.Crawl(ctx,
		ingest.MapSource(o.Pages),
		ingest.NewClusterSink(e.Cluster, owner.acct),
		seeds,
		ingest.Options{Seed: e.Cluster.Config().Seed})
	e.ingestMu.Lock()
	e.ingest.Merge(st)
	e.ingestMu.Unlock()
	return st, err
}

// IngestStats returns the accumulated counters of every Crawl driven on
// this engine (zero value if none ran). Safe to call concurrently with
// queries; queenbeed serves it under GET /stats.
func (e *Engine) IngestStats() IngestStats {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.ingest
}
