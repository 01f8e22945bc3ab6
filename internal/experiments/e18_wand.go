package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Block-max WAND: scoring work vs corpus scale, exhaustive vs early-terminated",
		Claim: "decentralized search stays affordable at web scale only if a frontend can answer top-k queries without touching most of the index: block-max skip data keeps postings scanned per query near-flat while the corpus grows 100x, with results byte-identical to exhaustive scoring",
		Run:   runE18,
	})
}

// e18Scale holds one corpus scale's per-query averages for one mode.
type e18Scale struct {
	scanned   float64
	skipped   float64 // blocks
	docsSkip  float64
	simMs     float64
	identical bool // WAND result lists matched exhaustive ones exactly
}

// e18Run indexes an ndocs corpus as one batch (one v3 segment per
// shard) and replays the same top-10 query workload through two
// frontends on the same cluster — one on the block-max path, one forced
// exhaustive — returning per-query averages for both and whether every
// result list was identical.
func e18Run(seed uint64, ndocs int) (wand, exhaustive e18Scale) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = 12
	cfg.NumBees = 3
	c := core.NewCluster(cfg)
	owner := c.NewAccount("e18-owner", 1<<40)
	c.Seal()

	corp := corpus.Generate(corpus.Config{
		Seed:       seed,
		NumDocs:    ndocs,
		VocabSize:  2000,
		ZipfS:      1.0,
		MeanDocLen: 40,
		MeanLinks:  3,
	})
	pages := make([]core.BatchPage, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = core.BatchPage{URL: d.URL, Text: d.Text, Links: d.Links}
	}
	if _, err := c.IndexBatch(owner, pages); err != nil {
		panic(fmt.Sprintf("E18 index (%d docs): %v", ndocs, err))
	}
	c.RunUntilIdle(50)

	feWAND := core.NewFrontend(c, c.Peers[0])
	feEx := core.NewFrontend(c, c.Peers[1])
	feEx.SetUseBlockMax(false)

	queries := corp.Queries(seed, 16, 1)
	identical := true
	for _, q := range queries {
		cq := core.Query{Raw: q.Text, Mode: core.PlanAll, Limit: 10}
		wr, err := feWAND.ExecuteCtx(context.Background(), cq)
		if err != nil {
			panic(fmt.Sprintf("E18 wand query %q: %v", q.Text, err))
		}
		er, err := feEx.ExecuteCtx(context.Background(), cq)
		if err != nil {
			panic(fmt.Sprintf("E18 exhaustive query %q: %v", q.Text, err))
		}
		if wr.Total != er.Total || len(wr.Results) != len(er.Results) {
			identical = false
		} else {
			for i := range er.Results {
				if wr.Results[i] != er.Results[i] {
					identical = false
					break
				}
			}
		}
		wand.scanned += float64(wr.ScoreStats.PostingsScanned)
		wand.skipped += float64(wr.ScoreStats.BlocksSkipped)
		wand.docsSkip += float64(wr.ScoreStats.DocsSkipped)
		wand.simMs += float64(wr.Cost.Latency) / 1e6
		exhaustive.scanned += float64(er.ScoreStats.PostingsScanned)
		exhaustive.skipped += float64(er.ScoreStats.BlocksSkipped)
		exhaustive.docsSkip += float64(er.ScoreStats.DocsSkipped)
		exhaustive.simMs += float64(er.Cost.Latency) / 1e6
	}
	n := float64(len(queries))
	for _, s := range []*e18Scale{&wand, &exhaustive} {
		s.scanned /= n
		s.skipped /= n
		s.docsSkip /= n
		s.simMs /= n
		s.identical = identical
	}
	return wand, exhaustive
}

// runE18 compares exhaustive scoring against block-max WAND at three
// corpus scales. The reading that matters: the exhaustive row's
// postings-scanned column grows ~linearly with the corpus while the
// WAND row stays near-flat — and the "identical" column stays true,
// because early termination is a work optimization, never a ranking
// change (TestE18ResultsIdentical asserts it).
func runE18(seed uint64) []*metrics.Table {
	table := metrics.NewTable(
		"E18 — top-10 scoring work vs corpus scale, exhaustive vs block-max WAND (16 single-term queries)",
		"docs", "mode", "postings scanned/q", "blocks skipped/q", "docs skipped/q", "sim ms/q", "identical results")
	for _, ndocs := range []int{48, 480, 4800} {
		w, ex := e18Run(seed, ndocs)
		table.AddRow(ndocs, "exhaustive", fmt.Sprintf("%.1f", ex.scanned),
			fmt.Sprintf("%.1f", ex.skipped), fmt.Sprintf("%.1f", ex.docsSkip),
			fmt.Sprintf("%.1f", ex.simMs), ex.identical)
		table.AddRow(ndocs, "wand", fmt.Sprintf("%.1f", w.scanned),
			fmt.Sprintf("%.1f", w.skipped), fmt.Sprintf("%.1f", w.docsSkip),
			fmt.Sprintf("%.1f", w.simMs), w.identical)
	}
	return []*metrics.Table{table}
}
