package experiments

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Figure 1 end-to-end: publish → contract → bees → frontend → ads",
		Claim: "the QueenBee architecture functions end-to-end as drawn in Figure 1",
		Run:   runE1,
	})
}

// newCluster boots a deployment of the given size at seed, with tune
// (if not nil) adjusting the rest of its configuration, then funds one
// account per name with funds honey each, in order, and seals them into
// the first block. Account names reach addresses and the configuration
// reaches RNG draws, so every table passes the ones it was recorded
// with.
func newCluster(seed uint64, peers, bees int, tune func(*core.Config), funds uint64, names ...string) (*core.Cluster, []*chain.Account) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = peers
	cfg.NumBees = bees
	if tune != nil {
		tune(&cfg)
	}
	c := core.NewCluster(cfg)
	accts := make([]*chain.Account, len(names))
	for i, name := range names {
		accts[i] = c.NewAccount(name, funds)
	}
	c.Seal()
	return c, accts
}

// publishPages publishes pages, page i signed by owners[i mod
// len(owners)] and stored on peer i mod the peer count. After every batch
// pages (never, if batch is 0) it seals and runs the bees for up to idle
// rounds, so commit deadlines stay satisfiable; it ends with a seal and
// up to final rounds. It returns the rounds run.
func publishPages(c *core.Cluster, owners []*chain.Account, pages []core.BatchPage, batch, idle, final int) int {
	rounds := 0
	for i, p := range pages {
		if _, err := c.Publish(owners[i%len(owners)], c.Peers[i%len(c.Peers)], p.URL, p.Text, p.Links); err != nil {
			panic(err)
		}
		if batch > 0 && i%batch == batch-1 {
			c.Seal()
			rounds += c.RunUntilIdle(idle)
		}
	}
	c.Seal()
	return rounds + c.RunUntilIdle(final)
}

// buildWorkloadCluster publishes a corpus into a fresh cluster and drives
// the bees until the index is complete.
func buildWorkloadCluster(seed uint64, peers, bees, docs int) (*core.Cluster, *corpus.Corpus) {
	c, accts := newCluster(seed, peers, bees, nil, 1_000_000, "publisher")
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = docs
	corp := corpus.Generate(ccfg)
	pages := make([]core.BatchPage, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = core.BatchPage{URL: d.URL, Text: d.Text, Links: d.Links}
	}
	publishPages(c, accts, pages, 50, 4, 8)
	return c, corp
}

func runE1(seed uint64) []*metrics.Table {
	const (
		peers = 24
		bees  = 6
		docs  = 120
	)
	c, corp := buildWorkloadCluster(seed, peers, bees, docs)

	// Advertiser joins the market.
	adv := c.NewAccount("advertiser", 100_000)
	c.Seal()
	c.SubmitCall(adv, contracts.MethodRegisterAd, contracts.RegisterAdParams{
		Keywords: []string{corp.Vocab(0), corp.Vocab(1)}, BidPerClick: 10,
	}, 1000)
	c.Seal()

	// Rank epoch.
	epoch := c.StartRankEpoch(4)
	c.RunUntilIdle(8)
	re, _ := c.QB.RankEpochInfo(epoch)

	// Queries through the frontend.
	fe := core.NewFrontend(c, c.Peers[1])
	queries := corp.Queries(seed, 60, 2)
	var latency metrics.Histogram
	var msgs metrics.Histogram
	hits, adImpressions := 0, 0
	for _, q := range queries {
		resp, err := fe.Search(q.Text, 10)
		if err != nil {
			continue
		}
		latency.AddDuration(resp.Cost.Latency)
		msgs.Add(float64(resp.Cost.Msgs))
		if len(resp.Results) > 0 {
			hits++
		}
		adImpressions += len(resp.Ads)
	}

	open, finalized, failed := c.QB.TaskCounts()
	st := c.Chain.State()

	t := metrics.NewTable("E1 — Figure 1 end-to-end", "metric", "value")
	t.AddRow("peers", peers)
	t.AddRow("worker bees", bees)
	t.AddRow("pages published", c.QB.PageCount())
	t.AddRow("index tasks finalized", finalized)
	t.AddRow("index tasks failed", failed)
	t.AddRow("index tasks open", open)
	t.AddRow("rank epoch finalized", boolStr(re.Done))
	t.AddRow("queries issued", len(queries))
	t.AddRow("queries with hits", hits)
	t.AddRow("hit rate", float64(hits)/float64(len(queries)))
	t.AddRow("query p50 latency (ms)", latency.Median()*1000)
	t.AddRow("query p95 latency (ms)", latency.Quantile(0.95)*1000)
	t.AddRow("query mean msgs", msgs.Mean())
	t.AddRow("ad impressions", adImpressions)
	t.AddRow("chain height", c.Chain.Height())
	t.AddRow("honey conservation", boolStr(st.SumBalances() == st.Supply()))
	t.AddRow("chain integrity", boolStr(c.Chain.VerifyIntegrity() == nil))
	return []*metrics.Table{t}
}

func boolStr(b bool) string {
	if b {
		return "ok"
	}
	return "VIOLATED"
}

// urlOf is a tiny helper used by several experiments.
func urlOf(i int) string { return fmt.Sprintf("dweb://site/%04d", i) }

// numberedPages returns n unlinked pages, page i at urlOf(i) with text
// format filled in with i.
func numberedPages(n int, format string) []core.BatchPage {
	pages := make([]core.BatchPage, n)
	for i := range pages {
		pages[i] = core.BatchPage{URL: urlOf(i), Text: fmt.Sprintf(format, i)}
	}
	return pages
}
