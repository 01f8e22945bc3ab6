package queenbee

import (
	"context"
	"time"

	"repro/internal/ingest"
)

// IngestStats is the streaming pipeline's counter/timing snapshot:
// fetched, deduped, published, queue depth/wait, round phase busy
// times, simulated makespan, and the derived sim pages/s and pipelining
// speedup (see docs/ingest.md).
type IngestStats = ingest.Stats

// CrawlOptions tunes Engine.Crawl. The zero value of every field is
// usable: a nil Owner gets a freshly funded crawler account, and the
// pipeline knobs fall back to the ingest package defaults.
type CrawlOptions struct {
	// Owner publishes every crawled batch. Nil creates and funds a
	// "crawler" account for this crawl.
	Owner *Account
	// Pages is the crawlable web: URLs resolve against this set, links
	// walk it. Links pointing outside it count as dangling.
	Pages []Page
	// FetchWorkers, QueueDepth, BatchSize, MaxPages, DedupThreshold,
	// FetchFailRate and MeanFetchLatency map directly onto
	// ingest.Options (zero values select the defaults there).
	FetchWorkers     int
	QueueDepth       int
	BatchSize        int
	MaxPages         int
	DedupThreshold   float64
	FetchFailRate    float64
	MeanFetchLatency time.Duration
	// RankEvery drives one delta-scheduled page-rank epoch after every
	// RankEvery batches (0 = never), so rank freshness rides the crawl
	// instead of waiting for a terminal ComputeRanks. RankPartitions is
	// each epoch's partition count (0 = one partition). Every 4th epoch
	// is a full recompute (core.Cluster.StartRankEpochDelta).
	RankEvery      int
	RankPartitions int
}

// Crawl runs the streaming ingest loop against this deployment, on the
// caller's goroutine: it walks the link graph from seeds, extracts pages
// and demotes near-duplicates, and indexes accepted pages through real
// publish rounds in BatchSize batches. Fetcher parallelism, the bounded
// queue and batch N+1's commit overlapping round N's reveal are costed
// in the simulated-time model that fills IngestStats. The randomness
// seed is the deployment's (WithSeed), so a crawl is a pure function of
// the engine configuration, the page set and the seeds: it leaves the
// DHT byte-identical to a sequential PublishBatch loop over the same
// pages.
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
		ingest.Options{
			Seed:             e.Cluster.Config().Seed,
			FetchWorkers:     o.FetchWorkers,
			QueueDepth:       o.QueueDepth,
			BatchSize:        o.BatchSize,
			MaxPages:         o.MaxPages,
			DedupThreshold:   o.DedupThreshold,
			FetchFailRate:    o.FetchFailRate,
			MeanFetchLatency: o.MeanFetchLatency,
			RankEvery:        o.RankEvery,
			RankPartitions:   o.RankPartitions,
		})
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
