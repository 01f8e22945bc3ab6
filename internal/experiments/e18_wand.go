package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/query"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Block-max WAND: scoring work vs corpus scale, checked against a full-scan oracle",
		Claim: "decentralized search stays affordable at web scale only if a frontend can answer top-k queries without touching most of the index: block-max skip data keeps postings scanned per query near-flat while the corpus grows 100x, with results byte-identical to a full scan",
		Run:   runE18,
	})
}

// e18Scale holds one corpus scale's per-query averages.
type e18Scale struct {
	matched  float64 // postings the full scan matches (Total)
	scanned  float64 // postings WAND decoded or probed
	skipped  float64 // blocks
	docsSkip float64
	simMs    float64
	top1     float64 // the first result's score, over queries that matched
	oracleOK bool    // every response equalled the oracle's
}

// e18Run indexes an ndocs corpus as one batch (one v3 segment per
// shard), replays a top-10 single-term workload through one frontend,
// and checks every response against the oracle over the same pages.
func e18Run(seed uint64, ndocs int) e18Scale {
	c, accts := newCluster(seed, 12, 3, nil, 1<<40, "e18-owner")

	corp := corpus.Generate(corpus.Config{
		Seed:       seed,
		NumDocs:    ndocs,
		VocabSize:  2000,
		ZipfS:      1.0,
		MeanDocLen: 40,
		MeanLinks:  3,
	})
	orc := oracle.New(c.Config().RankWeight)
	pages := make([]core.BatchPage, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = core.BatchPage{URL: d.URL, Text: d.Text, Links: d.Links}
		orc.Publish(d.URL, d.Text)
	}
	if _, err := c.IndexBatch(accts[0], pages); err != nil {
		panic(fmt.Sprintf("E18 index (%d docs): %v", ndocs, err))
	}
	c.RunUntilIdle(50)

	fe := core.NewFrontend(c, c.Peers[0])
	queries := corp.Queries(seed, 16, 1)
	out := e18Scale{oracleOK: true}
	answered := 0
	for _, q := range queries {
		resp, err := fe.ExecuteCtx(context.Background(), core.Query{Raw: q.Text, Mode: core.PlanAll, Limit: 10})
		if err != nil {
			panic(fmt.Sprintf("E18 query %q: %v", q.Text, err))
		}
		root, err := oracle.Flat(q.Text, query.KindAnd)
		if err != nil {
			panic(fmt.Sprintf("E18 oracle query %q: %v", q.Text, err))
		}
		want := orc.Search(root, c.QB.PageRanks(), 0, 10)
		out.oracleOK = out.oracleOK && resp.Total == want.Total && len(resp.Results) == len(want.Results)
		for i := 0; out.oracleOK && i < len(want.Results); i++ {
			r := resp.Results[i]
			out.oracleOK = oracle.Result{URL: r.URL, Score: r.Score, Rank: r.Rank} == want.Results[i]
		}
		out.matched += float64(want.Total)
		out.scanned += float64(resp.ScoreStats.PostingsScanned)
		out.skipped += float64(resp.ScoreStats.BlocksSkipped)
		out.docsSkip += float64(resp.ScoreStats.DocsSkipped)
		out.simMs += float64(resp.Cost.Latency) / 1e6
		if len(resp.Results) > 0 {
			out.top1 += resp.Results[0].Score
			answered++
		}
	}
	n := float64(len(queries))
	out.matched /= n
	out.scanned /= n
	out.skipped /= n
	out.docsSkip /= n
	out.simMs /= n
	out.top1 /= float64(max(answered, 1))
	return out
}

// runE18 measures block-max WAND at three corpus scales. The reading
// that matters: postings matched (what a full scan touches) grows ~linearly
// with the corpus while postings scanned stays near-flat — and the
// oracle column stays true, because early termination is a work
// optimization, never a ranking change (TestE18ResultsIdentical asserts
// it). The mean top-1 score pins the scoring function itself: the oracle
// shares its formula, so only a printed score moves when a BM25 constant
// does.
func runE18(seed uint64) []*metrics.Table {
	table := metrics.NewTable(
		"E18 — top-10 scoring work vs corpus scale, block-max WAND (16 single-term queries)",
		"docs", "postings matched/q", "postings scanned/q", "blocks skipped/q", "docs skipped/q", "sim ms/q", "top-1 score/q", "matches oracle")
	for _, ndocs := range []int{48, 480, 4800} {
		s := e18Run(seed, ndocs)
		table.AddRow(ndocs, fmt.Sprintf("%.1f", s.matched), fmt.Sprintf("%.1f", s.scanned),
			fmt.Sprintf("%.1f", s.skipped), fmt.Sprintf("%.1f", s.docsSkip),
			fmt.Sprintf("%.1f", s.simMs), fmt.Sprintf("%.4f", s.top1), s.oracleOK)
	}
	return []*metrics.Table{table}
}
