package queenbee

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/xrand"
)

// The engine against internal/oracle, a full-scan model that keeps the
// latest text of every URL and shares none of the engine's shards,
// segments, merges, compaction or executors.

// oracleQuery is one request put to the engine and to the oracle alike.
type oracleQuery struct {
	name          string
	raw           string
	mode          core.PlanMode
	offset, limit int
}

// ast compiles the query as the oracle reads it: parsed, or one of the
// flat modes.
func (q oracleQuery) ast() (*query.Node, error) {
	switch q.mode {
	case core.PlanAll:
		return oracle.Flat(q.raw, query.KindAnd)
	case core.PlanAny:
		return oracle.Flat(q.raw, query.KindOr)
	case core.PlanPhrase:
		return oracle.Flat(q.raw, query.KindPhrase)
	}
	return query.Parse(q.raw)
}

// oracleDiff describes how a response differs from the oracle's answer,
// or returns "" when they agree on the total and every result's URL,
// score and rank.
func oracleDiff(resp core.SearchResponse, want oracle.Response) string {
	if resp.Total != want.Total || len(resp.Results) != len(want.Results) {
		return fmt.Sprintf("total %d with %d results, oracle %d with %d", resp.Total, len(resp.Results), want.Total, len(want.Results))
	}
	for i, r := range resp.Results {
		if got := (oracle.Result{URL: r.URL, Score: r.Score, Rank: r.Rank}); got != want.Results[i] {
			return fmt.Sprintf("result %d = %+v, oracle %+v", i, got, want.Results[i])
		}
	}
	return ""
}

// checkOracle puts q to every pool frontend of e and to o, which scores
// with e's finalized ranks, and describes the first disagreement (""
// when there is none). It also returns the blocks and documents the
// frontends' executors skipped.
func checkOracle(e *Engine, o *oracle.Oracle, q oracleQuery) (diff string, skipped int64) {
	root, aerr := q.ast()
	ranks := e.Cluster.QB.PageRanks()
	for i := 0; i < e.pool.Size(); i++ {
		cq := core.Query{Raw: q.raw, Mode: q.mode, Offset: q.offset, Limit: q.limit}
		resp, err := e.pool.Frontend(i).ExecuteCtx(context.Background(), cq)
		if (err == nil) != (aerr == nil) {
			return fmt.Sprintf("%s on frontend %d: error %v, oracle %v", q.name, i, err, aerr), skipped
		}
		if err != nil {
			continue
		}
		if d := oracleDiff(resp, o.Search(root, ranks, q.offset, q.limit)); d != "" {
			return fmt.Sprintf("%s %q on frontend %d: %s", q.name, q.raw, i, d), skipped
		}
		skipped += resp.ScoreStats.BlocksSkipped + resp.ScoreStats.DocsSkipped
	}
	return "", skipped
}

// oracleWorkload is the query mix the engine must answer as the oracle
// does: single terms (the document-at-a-time direct path), AND, OR,
// phrase, parsed boolean queries, and paginated variants.
func oracleWorkload(corp *corpus.Corpus, seed uint64) []oracleQuery {
	var qs []oracleQuery
	for i, q := range corp.Queries(seed, 6, 1) {
		qs = append(qs, oracleQuery{fmt.Sprintf("term-%d", i), q.Text, core.PlanAll, 0, 10})
	}
	for i, q := range corp.Queries(seed+1, 4, 2) {
		qs = append(qs,
			oracleQuery{fmt.Sprintf("and-%d", i), q.Text, core.PlanAll, 0, 10},
			oracleQuery{fmt.Sprintf("or-%d", i), strings.Join(q.Terms, " OR "), core.PlanParsed, 0, 10},
			oracleQuery{fmt.Sprintf("phrase-%d", i), q.Text, core.PlanPhrase, 0, 10})
	}
	for i, q := range corp.Queries(seed+2, 3, 1) {
		// Pagination: the heap target is offset+limit, so deep pages must
		// still match the full scan exactly.
		for page := 1; page <= 3; page++ {
			qs = append(qs, oracleQuery{fmt.Sprintf("page%d-%d", page, i), q.Text, core.PlanAny, (page - 1) * 3, 3})
		}
	}
	for i, q := range corp.Queries(seed+3, 2, 3) {
		raw := fmt.Sprintf("%s OR (%s %s)", q.Terms[0], q.Terms[1], q.Terms[2])
		qs = append(qs, oracleQuery{fmt.Sprintf("bool-%d", i), raw, core.PlanParsed, 0, 7})
	}
	return qs
}

// TestEngineMatchesOracle: across seeds, rank-weight extremes (0
// disables the blend, 1000 makes bound slack maximally dangerous) and
// every workload shape, every pool frontend must return the oracle's
// responses — same URLs, scores, ranks, totals, order — with ranks from
// a finalized epoch, while block-max skipping does real work.
func TestEngineMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		seed       uint64
		rankWeight float64
	}{
		{seed: 3, rankWeight: 0},
		{seed: 3, rankWeight: 1},
		{seed: 11, rankWeight: 1000},
	} {
		t.Run(fmt.Sprintf("seed=%d/rw=%v", tc.seed, tc.rankWeight), func(t *testing.T) {
			cfg := corpus.DefaultConfig()
			cfg.Seed = tc.seed
			cfg.NumDocs = 60
			cfg.MeanDocLen = 40
			corp := corpus.Generate(cfg)
			e := New(WithSeed(tc.seed), WithPeers(10), WithBees(3), WithFrontendPool(2),
				func(c *core.Config) { c.RankWeight = tc.rankWeight })
			o := oracle.New(tc.rankWeight)
			pages := make([]Page, len(corp.Docs))
			for i, d := range corp.Docs {
				pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
				o.Publish(d.URL, d.Text)
			}
			if _, err := e.PublishBatch(e.NewAccount("oracle-owner", 1<<40), pages); err != nil {
				t.Fatal(err)
			}
			e.RunUntilIdle()
			e.ComputeRanks(2)
			var skipped int64
			for _, q := range oracleWorkload(corp, tc.seed) {
				diff, s := checkOracle(e, o, q)
				if diff != "" {
					t.Fatal(diff)
				}
				skipped += s
			}
			if skipped == 0 {
				t.Error("block-max executor never skipped anything across the whole workload")
			}
		})
	}
}

// TestSearchScalingSublinear is the deterministic acceptance check
// behind BenchmarkSearchScaling: on the 1× and 100× corpora, (a) every
// response must equal the oracle's exactly, and (b) postings scanned per
// query at 100× must be at most 10× the 1× figure — the early-termination
// claim, in work counted rather than wall clock.
func TestSearchScalingSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("100× corpus ingest in -short mode")
	}
	scanned := map[int]int64{}
	for _, ndocs := range []int{48, 4800} {
		e, corp := scalingCorpusEngine(t, ndocs)
		o := oracle.New(core.DefaultConfig().RankWeight)
		for _, d := range corp.Docs {
			o.Publish(d.URL, d.Text)
		}
		ranks := e.Cluster.QB.PageRanks()
		queries := corp.Queries(7, 32, 1)
		var total int64
		for _, q := range queries {
			resp, err := e.Query(q.Text).Limit(10).Run()
			if err != nil {
				t.Fatal(err)
			}
			root, err := query.Parse(q.Text)
			if err != nil {
				t.Fatal(err)
			}
			if diff := oracleDiff(*resp, o.Search(root, ranks, 0, 10)); diff != "" {
				t.Fatalf("docs=%d %q: %s", ndocs, q.Text, diff)
			}
			total += resp.ScoreStats.PostingsScanned
		}
		scanned[ndocs] = total / int64(len(queries))
	}
	t.Logf("postings scanned per query: 1x=%d 100x=%d", scanned[48], scanned[4800])
	if scanned[4800] > 10*scanned[48] {
		t.Fatalf("postings scanned grew superlinearly with corpus: 1x=%d 100x=%d (> 10x)",
			scanned[48], scanned[4800])
	}
}

// oracleSequenceSteps is each seeded sequence's length in tier-1: enough
// runs on a 4-shard index for compaction to reach tier 2.
const oracleSequenceSteps = 30

// sequenceWords is the seeded sequences' vocabulary: small, so queries
// match and phrases occur.
var sequenceWords = []string{"amber", "birch", "cobalt", "delta", "ember", "fjord", "granite", "harbor", "indigo", "juniper"}

// TestOracleSequences is the model-based check. Seeded sequences mix
// single publishes, republishes and batches of new and republished
// pages, with a full rank epoch every sixth step. After each step's
// rounds every pool frontend answers a query mix — terms, AND, OR,
// phrase, exclusion, site: and -site: filters, a deep page — exactly as
// the oracle does, and the chain's collection statistics equal the
// oracle's. Compaction must reach tier 2 along the way.
func TestOracleSequences(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := runOracleSequence(t, seed, oracleSequenceSteps)
			if tiers := e.WriteStats().SegmentsPerTier; len(tiers) < 3 {
				t.Fatalf("compaction reached only tiers %v; the sequence must exercise tier 2", tiers)
			}
		})
	}
}

// runOracleSequence runs the first steps operations of seed's sequence and
// returns the engine. A failure names the seed and the prefix of steps
// that replays it: runOracleSequence(t, seed, prefix).
func runOracleSequence(t *testing.T, seed uint64, steps int) *Engine {
	t.Helper()
	rng := xrand.New(seed)
	e := New(WithSeed(seed), WithPeers(10), WithBees(3), WithFrontendPool(3),
		func(c *core.Config) { c.NumShards = 4 })
	owner := e.NewAccount("publisher", 1<<40)
	o := oracle.New(core.DefaultConfig().RankWeight)
	var urls []string
	word := func() string { return sequenceWords[rng.Intn(len(sequenceWords))] }
	text := func() string {
		ws := make([]string, 3+rng.Intn(6))
		for i := range ws {
			ws[i] = word()
		}
		return strings.Join(ws, " ")
	}
	newURL := func() string {
		u := fmt.Sprintf("dweb://drv/%c/%03d", 'a'+rune(len(urls)%2), len(urls))
		urls = append(urls, u)
		return u
	}
	// Links to earlier pages skew the ranks, so the rank blend orders
	// results.
	links := func() []string {
		if len(urls) == 0 {
			return nil
		}
		return []string{urls[rng.Intn(len(urls))], urls[rng.Intn(1+len(urls)/4)]}
	}
	for step := 1; step <= steps; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d prefix %d (replay: runOracleSequence(t, %d, %d)): %s", seed, step, seed, step, fmt.Sprintf(format, args...))
		}
		switch op := rng.Intn(3); {
		case op == 0 || len(urls) == 0: // publish a new URL
			ls, u, body := links(), newURL(), text()
			if err := e.Publish(owner, u, body, ls); err != nil {
				fail("publish: %v", err)
			}
			o.Publish(u, body)
		case op == 1: // republish an existing URL with new text
			u, body := urls[rng.Intn(len(urls))], text()
			if err := e.Publish(owner, u, body, links()); err != nil {
				fail("republish: %v", err)
			}
			o.Publish(u, body)
		default: // a batch of new and republished pages
			var pages []Page
			seen := map[string]bool{}
			for n := 2 + rng.Intn(4); len(pages) < n; {
				u := urls[rng.Intn(len(urls))]
				if rng.Intn(2) == 0 {
					u = newURL()
				}
				if !seen[u] {
					seen[u] = true
					pages = append(pages, Page{URL: u, Text: text(), Links: links()})
				}
			}
			if _, err := e.PublishBatch(owner, pages); err != nil {
				fail("batch: %v", err)
			}
			for _, p := range pages {
				o.Publish(p.URL, p.Text)
			}
		}
		e.RunUntilIdle()
		if step%6 == 0 {
			e.ComputeRanks(2)
		}

		st := e.Cluster.QB.IndexStats()
		if docs, tokens := o.Stats(); st.Docs != docs || st.Tokens != tokens {
			fail("index stats %+v, oracle %d docs %d tokens", st, docs, tokens)
		}
		a, b := word(), word()
		for _, q := range []oracleQuery{
			{"term", a, core.PlanParsed, 0, 10},
			{"and", a + " " + b, core.PlanParsed, 0, 10},
			{"or", a + " OR " + b, core.PlanParsed, 0, 10},
			{"phrase", `"` + a + " " + b + `"`, core.PlanParsed, 0, 10},
			{"not", a + " -" + b, core.PlanParsed, 0, 10},
			{"site", a + " site:dweb://drv/a/", core.PlanParsed, 0, 10},
			{"not-site", a + " OR " + b + " -site:dweb://drv/a/", core.PlanParsed, 0, 10},
			{"page", a + " " + b, core.PlanAny, 4, 4},
		} {
			if diff, _ := checkOracle(e, o, q); diff != "" {
				fail("%s", diff)
			}
		}
	}
	return e
}

// TestRepublishDropsOldTerms: republishing a page with words whose terms
// hash to other shards than the old text's must stop the old words from
// matching it. The republish segment carries the page's new DocLens
// entry, which tombstones the old postings only where it lands, so it
// must land on the old text's shards too.
func TestRepublishDropsOldTerms(t *testing.T) {
	const shards = 8
	e := New(WithSeed(7), WithPeers(10), WithBees(3), func(c *core.Config) { c.NumShards = shards })
	o := oracle.New(core.DefaultConfig().RankWeight)
	owner := e.NewAccount("republisher", 1<<40)
	shardOf := func(w string) int { return index.ShardOf(index.AnalyzeQuery(w)[0], shards) }
	old := map[int]bool{shardOf("apple"): true, shardOf("echo"): true}
	var fresh []string
	for _, w := range []string{"banana", "cherry", "damson", "fig", "grape", "kiwi", "lemon", "mango", "olive", "peach", "quince"} {
		if len(fresh) < 2 && !old[shardOf(w)] {
			fresh = append(fresh, w)
		}
	}
	if len(fresh) < 2 {
		t.Fatalf("no two candidate words off the old shards %v", old)
	}
	for _, text := range []string{"apple echo", strings.Join(fresh, " ")} {
		if err := e.Publish(owner, "dweb://p", text, nil); err != nil {
			t.Fatal(err)
		}
		e.RunUntilIdle()
		o.Publish("dweb://p", text)
	}
	for _, w := range []string{"apple", "echo", fresh[0], fresh[1]} {
		if diff, _ := checkOracle(e, o, oracleQuery{"term", w, core.PlanParsed, 0, 10}); diff != "" {
			t.Fatal(diff)
		}
	}
	if resp, err := e.Query("apple").Run(); err != nil || resp.Total != 0 {
		t.Fatalf("apple after the republish: %+v, %v; want no match", resp, err)
	}
}
