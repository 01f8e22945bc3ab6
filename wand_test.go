package queenbee

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// useExhaustive flips every pool frontend of e to the reference executor
// (exhaustive candidate scoring) and returns e.
func useExhaustive(e *Engine) *Engine {
	for i := 0; i < e.pool.Size(); i++ {
		e.pool.Frontend(i).SetUseBlockMax(false)
	}
	return e
}

// wandPair boots two engines over the same seed and corpus — one on the
// default block-max path, one forced exhaustive — and returns both. Ranks
// are computed so the page-rank blend is live when rankWeight > 0.
func wandPair(t testing.TB, seed uint64, ndocs int, rankWeight float64) (wand, exhaustive *Engine, corp *corpus.Corpus) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDocs = ndocs
	cfg.MeanDocLen = 40
	corp = corpus.Generate(cfg)
	pages := make([]Page, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
	}
	build := func() *Engine {
		e := New(WithSeed(seed), WithPeers(10), WithBees(3), WithRankWeight(rankWeight))
		owner := e.NewAccount("wand-owner", 1<<40)
		if _, err := e.PublishBatch(owner, pages); err != nil {
			t.Fatal(err)
		}
		e.RunUntilIdle()
		e.ComputeRanks(2)
		e.RunUntilIdle()
		return e
	}
	return build(), useExhaustive(build()), corp
}

// wandWorkload builds the query mix the equivalence tests replay on both
// engines: single terms (the document-at-a-time direct path), AND, OR,
// phrase, parsed boolean queries, and paginated variants.
type wandQuery struct {
	name string
	run  func(e *Engine) (*Response, error)
}

func wandWorkload(corp *corpus.Corpus, seed uint64) []wandQuery {
	var qs []wandQuery
	for i, q := range corp.Queries(seed, 6, 1) {
		text := q.Text
		qs = append(qs, wandQuery{fmt.Sprintf("term-%d", i), func(e *Engine) (*Response, error) {
			return e.Query(text).All().Run()
		}})
	}
	for i, q := range corp.Queries(seed+1, 4, 2) {
		text := q.Text
		qs = append(qs, wandQuery{fmt.Sprintf("and-%d", i), func(e *Engine) (*Response, error) {
			return e.Query(text).All().Run()
		}})
		qs = append(qs, wandQuery{fmt.Sprintf("or-%d", i), func(e *Engine) (*Response, error) {
			return e.Query(strings.Join(q.Terms, " OR ")).Run()
		}})
		qs = append(qs, wandQuery{fmt.Sprintf("phrase-%d", i), func(e *Engine) (*Response, error) {
			return e.Query(text).Phrase().Run()
		}})
	}
	for i, q := range corp.Queries(seed+2, 3, 1) {
		text := q.Text
		// Pagination: the heap target is offset+limit, so deep pages must
		// still match exhaustive scoring exactly.
		for page := 1; page <= 3; page++ {
			p := page
			qs = append(qs, wandQuery{fmt.Sprintf("page%d-%d", p, i), func(e *Engine) (*Response, error) {
				return e.Query(text).Any().Page(p, 3).Run()
			}})
		}
	}
	for i, q := range corp.Queries(seed+3, 2, 3) {
		terms := q.Terms
		qs = append(qs, wandQuery{fmt.Sprintf("bool-%d", i), func(e *Engine) (*Response, error) {
			return e.Query(fmt.Sprintf("%s OR (%s %s)", terms[0], terms[1], terms[2])).Limit(7).Run()
		}})
	}
	return qs
}

// TestWANDEngineMatchesExhaustive: across seeds, rank-weight extremes
// (0 disables the blend, 1000 makes bound slack maximally dangerous) and
// every workload shape, the block-max engine must return byte-identical
// responses — same URLs, scores, ranks, totals, order — to the engine
// that scores every candidate exhaustively.
func TestWANDEngineMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		seed       uint64
		rankWeight float64
	}{
		{seed: 3, rankWeight: 0},
		{seed: 3, rankWeight: 1},
		{seed: 11, rankWeight: 1000},
	} {
		t.Run(fmt.Sprintf("seed=%d/rw=%v", tc.seed, tc.rankWeight), func(t *testing.T) {
			w, ex, corp := wandPair(t, tc.seed, 60, tc.rankWeight)
			var skipped int64
			for _, q := range wandWorkload(corp, tc.seed) {
				wr, werr := q.run(w)
				er, eerr := q.run(ex)
				if (werr == nil) != (eerr == nil) {
					t.Fatalf("%s: error mismatch: wand=%v exhaustive=%v", q.name, werr, eerr)
				}
				if werr != nil {
					continue
				}
				if wr.Total != er.Total {
					t.Fatalf("%s: total %d, want %d", q.name, wr.Total, er.Total)
				}
				if len(wr.Results) != len(er.Results) {
					t.Fatalf("%s: %d results, want %d", q.name, len(wr.Results), len(er.Results))
				}
				for i := range er.Results {
					if wr.Results[i] != er.Results[i] {
						t.Fatalf("%s: result %d = %+v, want %+v", q.name, i, wr.Results[i], er.Results[i])
					}
				}
				if er.ScoreStats.BlocksSkipped != 0 || er.ScoreStats.DocsSkipped != 0 {
					t.Fatalf("%s: exhaustive engine skipped work: %+v", q.name, er.ScoreStats)
				}
				skipped += wr.ScoreStats.DocsSkipped + wr.ScoreStats.BlocksSkipped
			}
			if skipped == 0 {
				t.Error("block-max engine never skipped anything across the whole workload")
			}
		})
	}
}

// TestSearchScalingSublinear is the deterministic acceptance check
// behind BenchmarkSearchScaling: on the same 1×/10×/100× corpora, (a)
// the block-max engine's results must equal the exhaustive engine's
// exactly at every scale, and (b) postings scanned per query at 100×
// must be at most 10× the 1× figure — the early-termination claim, in
// work counted rather than wall clock.
func TestSearchScalingSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("100× corpus ingest in -short mode")
	}
	scanned := map[int]int64{}
	for _, ndocs := range []int{48, 4800} {
		e, corp := scalingCorpusEngine(t, ndocs)
		ex, _ := scalingCorpusEngine(t, ndocs)
		useExhaustive(ex)
		queries := corp.Queries(7, 32, 1)
		var total int64
		for _, q := range queries {
			resp, err := e.Query(q.Text).Limit(10).Run()
			if err != nil {
				t.Fatal(err)
			}
			exResp, err := ex.Query(q.Text).Limit(10).Run()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Total != exResp.Total || len(resp.Results) != len(exResp.Results) {
				t.Fatalf("docs=%d %q: total %d/%d results %d/%d", ndocs, q.Text,
					resp.Total, exResp.Total, len(resp.Results), len(exResp.Results))
			}
			for i := range exResp.Results {
				if resp.Results[i] != exResp.Results[i] {
					t.Fatalf("docs=%d %q result %d: %+v, want %+v", ndocs, q.Text, i,
						resp.Results[i], exResp.Results[i])
				}
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
