package experiments

import (
	"context"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Streaming ingest: pipelined vs serial publish rounds, queue depth × bee count",
		Claim: "keeping the index fresh against a web-scale corpus needs a staged crawler pipeline: with batch N+1's commit overlapping round N's reveal, ingest throughput is bounded by the slower phase instead of their sum",
		Run:   runE17,
	})
}

// e17Crawl drives one full crawl of a generated corpus through real
// cluster rounds and returns the pipeline's stats. Every URL is seeded,
// so the crawl covers the whole corpus regardless of link shape.
func e17Crawl(seed uint64, pages, bees, depth, batch int) ingest.Stats {
	c, accts := newCluster(seed, 16, bees, nil, 1<<40, "crawler")

	corp := corpus.Generate(corpus.Config{
		Seed:       seed,
		NumDocs:    pages,
		VocabSize:  4000,
		ZipfS:      1.0,
		MeanDocLen: 40, // light documents: the pipeline, not Analyze, is under test
		MeanLinks:  3,
	})
	seeds := make([]string, len(corp.Docs))
	for i := range corp.Docs {
		seeds[i] = corp.Docs[i].URL
	}
	st, err := ingest.Crawl(context.Background(),
		ingest.CorpusSource(corp), ingest.NewClusterSink(c, accts[0]), seeds,
		ingest.Options{
			Seed:         seed,
			FetchWorkers: 8,
			QueueDepth:   depth,
			BatchSize:    batch,
		})
	if err != nil {
		panic(fmt.Sprintf("E17 crawl (%d pages, %d bees): %v", pages, bees, err))
	}
	return st
}

// runE17 measures the streaming ingest pipeline end to end against real
// publish rounds.
//
// Headline: a 2048-page crawl at 8 bees, costed under both round
// models. The model never changes the chain call sequence
// (TestIngestPipelineDeterminism), so one crawl yields both makespans
// and their gap is purely the overlap of batch N+1's commit with round
// N's reveal: the crawl runs at the slower phase's pace, not the sum.
//
// Sweep: queue depth × bee count at a smaller crawl. Depth buys the
// fetchers room to run ahead of the indexer (less stall wait); bees cut
// the commit wave, moving the bottleneck back toward fetch.
func runE17(seed uint64) []*metrics.Table {
	const (
		headlinePages = 2048
		headlineBatch = 64
		sweepPages    = 384
		sweepBatch    = 32
	)

	headline := metrics.NewTable(
		fmt.Sprintf("E17 — streaming ingest, pipelined vs serial rounds (%d pages, 8 bees, queue 8, batch %d)", headlinePages, headlineBatch),
		"published", "batches", "serial makespan", "pipelined makespan", "sim pages/s", "queue wait", "stall wait", "speedup")
	st := e17Crawl(seed, headlinePages, 8, 8, headlineBatch)
	headline.AddRow(st.Published, st.Batches,
		st.SerialMakespan.String(), st.Makespan.String(), st.PagesPerSec(),
		st.QueueWait.String(), st.StallWait.String(), st.Speedup())

	sweep := metrics.NewTable(
		fmt.Sprintf("E17 — ingest sweep, queue depth × bees (%d pages, batch %d, pipelined)", sweepPages, sweepBatch),
		"bees", "queue depth", "sim makespan", "sim pages/s", "queue wait", "stall wait", "depth max", "speedup")
	for _, bees := range []int{4, 8} {
		for _, depth := range []int{2, 8} {
			st := e17Crawl(seed, sweepPages, bees, depth, sweepBatch)
			sweep.AddRow(bees, depth,
				st.Makespan.String(), st.PagesPerSec(),
				st.QueueWait.String(), st.StallWait.String(),
				st.QueueDepthMax, st.Speedup())
		}
	}
	return []*metrics.Table{headline, sweep}
}
