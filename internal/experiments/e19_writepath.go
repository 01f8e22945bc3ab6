package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rank"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Write-path scaling: tiered compaction, delta vs full rank epochs",
		Claim: "indexing a growing web cannot pay write costs that grow with index size: steady-state bytes rewritten per publish round must stay flat under compaction, and rank refresh must cost the edit's neighborhood, not the whole graph",
		Run:   runE19,
	})
}

// e19IngestOutcome summarizes one steady-ingest run for the compaction
// table: the average IngestedBytes and CompactedBytes per round over the
// LAST quartile of rounds (the steady state, past warm-up) and the run's
// cumulative write amplification.
type e19IngestOutcome struct {
	ingested, compacted float64
	amp                 float64
}

// e19Ingest publishes `rounds` uniform batches through real protocol
// rounds and reads the per-round bytes straight off the round receipts.
func e19Ingest(seed uint64, rounds, docsPerRound int) e19IngestOutcome {
	c, accts := newCluster(seed, 10, 3, func(cfg *core.Config) { cfg.NumShards = 4 }, 1<<40, "writer")

	var ingested, compacted []float64
	doc := 0
	for r := 0; r < rounds; r++ {
		pages := make([]core.BatchPage, docsPerRound)
		for j := range pages {
			url := fmt.Sprintf("dweb://e19/%05d", doc)
			var links []string
			if doc > 0 {
				links = []string{fmt.Sprintf("dweb://e19/%05d", doc-1)}
			}
			pages[j] = core.BatchPage{
				URL:   url,
				Text:  fmt.Sprintf("write path steady ingest corpus document %05d round %03d", doc, r),
				Links: links,
			}
			doc++
		}
		rr, err := c.IndexBatch(accts[0], pages)
		if err != nil {
			panic(fmt.Sprintf("E19 ingest round %d: %v", r, err))
		}
		ingested = append(ingested, float64(rr.IngestedBytes))
		compacted = append(compacted, float64(rr.CompactedBytes))
	}

	q := rounds - rounds/4 // last quartile: steady state, past warm-up
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	return e19IngestOutcome{
		ingested:  mean(ingested[q:]),
		compacted: mean(compacted[q:]),
		amp:       c.WriteStats().Amplification(),
	}
}

// e19Hubs and e19Mids bound the head of the e19Links hierarchy.
const (
	e19Hubs = 16
	e19Mids = 32
)

// e19URL names page i of the rank corpus.
func e19URL(i int) string { return fmt.Sprintf("dweb://e19r/%05d", i) }

// e19Links builds a deterministic hierarchical link map of n pages, the
// shape that makes incremental rank worthwhile (and that link graphs
// actually have): a small head of hub pages linking among themselves, a
// mid tier linking up into the hubs, and a long tail of leaves linking
// to hubs and mids but never to other leaves. An edit's forward closure
// is then the edited pages plus the head — O(head), not O(n) — which is
// exactly the locality a delta epoch exploits. Hub in-links are drawn
// from a skewed distribution so the rank head is well separated (no
// near-ties for the top-10 to flip on).
func e19Links(seed uint64, n int) map[string][]string {
	rng := xrand.New(seed)
	links := make(map[string][]string, n)
	hub := func() string { return e19URL(rng.Intn(rng.Intn(e19Hubs) + 1)) }
	for i := 0; i < n; i++ {
		switch {
		case i < e19Hubs:
			links[e19URL(i)] = []string{e19URL((i + 1) % e19Hubs)} // head cycle: hubs stay non-dangling
		case i < e19Hubs+e19Mids:
			links[e19URL(i)] = []string{hub(), hub()}
		default:
			links[e19URL(i)] = []string{
				hub(),
				e19URL(e19Hubs + rng.Intn(e19Mids)),
				e19URL(e19Hubs + rng.Intn(e19Mids)),
			}
		}
	}
	return links
}

// e19RankRow measures one graph size for the rank table: edit a fixed
// handful of pages, then compare a full recompute's cost against the
// delta epoch's, as iterations × nodes-updated — the work metric both
// paths share.
type e19RankRow struct {
	n          int
	dirty      int
	active     int
	fullCost   int
	deltaCost  int
	drift      float64
	exactTop10 bool
}

func e19Rank(seed uint64, n int) e19RankRow {
	const edits = 8
	links := e19Links(seed, n)
	oldG := rank.NewGraph(links)
	oldRes := rank.Compute(oldG, rank.DefaultOptions())

	// The edit a delta epoch sees mid-crawl: a handful of new leaf pages
	// arriving, each linking up into the existing hierarchy, plus a few
	// existing leaves re-pointed. The dirty closure is the edited pages
	// and the head they link into.
	var dirtyURLs []string
	for k := 0; k < edits; k++ {
		var u string
		if k < edits/2 {
			u = e19URL(n + k) // new page joining the graph
		} else {
			u = e19URL(e19Hubs + e19Mids + (k*(n/edits))%(n-e19Hubs-e19Mids)) // existing leaf re-pointed
		}
		links[u] = []string{
			e19URL(k % e19Hubs),
			e19URL(e19Hubs + (k*7)%e19Mids),
		}
		dirtyURLs = append(dirtyURLs, u)
	}
	newG := rank.NewGraph(links)
	full := rank.Compute(newG, rank.DefaultOptions())

	prev := make([]float64, newG.Size())
	var dirty []int
	for i := 0; i < newG.Size(); i++ {
		if oi, ok := oldG.NodeOf(newG.URL(i)); ok {
			prev[i] = oldRes.Ranks[oi]
		} else {
			dirty = append(dirty, i)
		}
	}
	for _, u := range dirtyURLs {
		if i, ok := newG.NodeOf(u); ok {
			dirty = append(dirty, i)
		}
	}
	res := rank.ComputeDelta(newG, prev, dirty, rank.DefaultOptions())

	var drift float64
	for i := range full.Ranks {
		if d := math.Abs(full.Ranks[i] - res.Ranks[i]); d > drift {
			drift = d
		}
	}
	exact := true
	ft, dt := rank.TopN(full.Ranks, 10), rank.TopN(res.Ranks, 10)
	for i := range ft {
		if ft[i] != dt[i] {
			exact = false
		}
	}
	return e19RankRow{
		n:          newG.Size(),
		dirty:      len(dirtyURLs),
		active:     res.Active,
		fullCost:   full.Iterations * newG.Size(),
		deltaCost:  res.Iterations * res.Active,
		drift:      drift,
		exactTop10: exact,
	}
}

// runE19 produces the two write-path scaling tables.
//
// Compaction: steady ingest at three run lengths. The column that
// matters is steady-state compacted bytes per round beside the bytes
// ingested: it stays flat as the shards grow, up to the slow log-factor
// of deeper tiers, where merging a shard's whole chain would grow with
// the shard. The cumulative write-amplification column shows the same
// story as a ratio.
//
// Rank: full vs delta epoch cost (iterations × nodes updated) after a
// fixed 8-page edit (half new pages, half re-pointed leaves), across
// graph sizes. The delta column grows with the edit's closure — the
// edited pages plus the head tier they link into — not with n; drift
// stays within the documented bound and the top-10 ordering is exact.
func runE19(seed uint64) []*metrics.Table {
	const docsPerRound = 16
	compaction := metrics.NewTable(
		fmt.Sprintf("E19 — steady-state compaction cost, tiered compaction (%d docs/round, 4 shards)", docsPerRound),
		"rounds", "ingested B/round", "compacted B/round", "amp")
	for _, rounds := range []int{16, 32, 64} {
		run := e19Ingest(seed, rounds, docsPerRound)
		compaction.AddRow(rounds,
			fmt.Sprintf("%.0f", run.ingested),
			fmt.Sprintf("%.0f", run.compacted),
			fmt.Sprintf("%.2f", run.amp))
	}

	rankTable := metrics.NewTable(
		"E19 — rank refresh cost, full vs delta epoch (8 pages edited)",
		"nodes", "dirty", "closure", "full cost", "delta cost", "cost ratio", "L∞ drift", "top-10 exact")
	for _, n := range []int{500, 2000, 8000} {
		row := e19Rank(seed, n)
		rankTable.AddRow(row.n, row.dirty, row.active, row.fullCost, row.deltaCost,
			fmt.Sprintf("%.3f", float64(row.deltaCost)/float64(row.fullCost)),
			fmt.Sprintf("%.2e", row.drift),
			row.exactTop10)
	}
	return []*metrics.Table{compaction, rankTable}
}
