package experiments

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rank"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "Freshness: publish-driven vs crawl-driven indexing",
		Claim: "no-crawling, because crawling inevitably reduces the freshness of the search results",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Tamper-proof content via cryptographic hashes",
		Claim: "tamper-proof contents because each content piece is uniquely identified by a cryptographic hash",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Index maintenance scaling with worker bees",
		Claim: "worker bees — peers that help update the index",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Distributed page-rank computation",
		Claim: "worker bees … compute the page ranks",
		Run:   runE8,
	})
}

// runE5 measures time-to-searchable for a stream of page updates under
// QueenBee (publish-driven) and a crawler at several intervals.
func runE5(seed uint64) []*metrics.Table {
	const updates = 20
	rng := xrand.New(seed)

	// QueenBee: publish → rounds until the new term is searchable.
	var qbHist metrics.Histogram
	{
		c, accts := newCluster(seed, 12, 3, nil, 1_000_000, "pub")
		pub := accts[0]
		fe := core.NewFrontend(c, c.Peers[2])
		for i := 0; i < updates; i++ {
			// Idle time between updates.
			c.Clock.Advance(time.Duration(rng.Intn(120)) * time.Second)
			marker := fmt.Sprintf("freshmarker%04d", i)
			start := c.Clock.Now()
			if _, err := c.Publish(pub, c.Peers[0], urlOf(i), "page body "+marker, nil); err != nil {
				panic(err)
			}
			c.Seal()
			for r := 0; r < 10; r++ {
				resp, err := fe.Search(marker, 5)
				if err == nil && len(resp.Results) > 0 {
					break
				}
				c.ProcessRound()
			}
			qbHist.AddDuration(c.Clock.Since(start))
		}
	}

	t := metrics.NewTable("E5 — time-to-searchable for page updates",
		"system", "median", "p95", "mean")
	addRow := func(name string, h *metrics.Histogram) {
		t.AddRow(name,
			time.Duration(h.Median()*float64(time.Second)),
			time.Duration(h.Quantile(0.95)*float64(time.Second)),
			time.Duration(h.Mean()*float64(time.Second)))
	}
	addRow("QueenBee (publish-driven)", &qbHist)

	// Crawler at several intervals on a virtual clock.
	for _, interval := range []time.Duration{time.Minute, 10 * time.Minute, 60 * time.Minute} {
		ncfg := netsim.DefaultConfig()
		ncfg.Seed = seed
		net := netsim.New(ncfg)
		net.Register("client", nil)
		clock := vclock.New(time.Time{})
		src := baseline.NewMapSource()
		src.Set("http://seedpage", "initial content")
		e := baseline.NewCentralEngine(net, clock, "server", src, interval)
		e.PerPage = 500 * time.Millisecond // politeness-limited crawling

		var h metrics.Histogram
		crng := xrand.New(seed + 99)
		for i := 0; i < updates; i++ {
			clock.Advance(time.Duration(crng.Intn(int(interval/time.Second)*2)) * time.Second)
			marker := fmt.Sprintf("crawlmarker%04d", i)
			src.Set(fmt.Sprintf("http://page/%d", i), "updated body "+marker)
			start := clock.Now()
			for {
				//detlint:ignore costdrop freshness poll; the table measures staleness time, not traffic
				urls, _, err := e.Search("client", marker, 5)
				if err == nil && len(urls) > 0 {
					break
				}
				clock.Advance(15 * time.Second) // client polls
			}
			h.AddDuration(clock.Since(start))
		}
		addRow(fmt.Sprintf("crawler (interval %s)", interval), &h)
	}
	return []*metrics.Table{t}
}

// runE6: malicious replicas serve modified bytes; hash verification must
// catch every one, and fetches must succeed while an honest replica
// remains.
func runE6(seed uint64) []*metrics.Table {
	const docs = 30
	t := metrics.NewTable("E6 — tamper detection",
		"tampered replicas", "fetch success %", "tampered accepted", "detections")

	for _, tamperers := range []int{0, 1, 2, 3} {
		_, peers := buildStoreSwarm(seed, 24, "peer", store.PeerConfig{})
		roots := make([]store.CID, docs)
		originals := make([][]byte, docs)
		for i := range roots {
			originals[i] = []byte(fmt.Sprintf("authentic document %04d with real facts", i))
			// Replicate via caches on peers 1..3 so there are 4 providers.
			roots[i] = publish(peers[0], originals[i], peers[1:4]...)
		}
		// Corrupt every block on the first `tamperers` replica peers.
		for j := 1; j <= tamperers; j++ {
			for i := 0; i < docs; i++ {
				_, blocks := store.ChunkDocument(originals[i], store.DefaultChunkSize)
				cids := make([]store.CID, 0, len(blocks))
				for cid := range blocks {
					cids = append(cids, cid)
				}
				sort.Slice(cids, func(a, b int) bool { return bytes.Compare(cids[a][:], cids[b][:]) < 0 })
				for _, cid := range cids {
					peers[j].Blocks().Corrupt(cid, store.EncodeLeaf([]byte("FAKE CONTENT INJECTION")))
				}
			}
		}
		reader := peers[20]
		got, ok := fetchEach(reader, roots)
		accepted := 0
		for i, data := range got {
			if data != nil && !bytes.Equal(data, originals[i]) {
				accepted++
			}
		}
		t.AddRow(tamperers, 100*float64(ok)/docs, accepted, reader.TamperDetections())
	}
	return []*metrics.Table{t}
}

// runE7: fixed publishing workload, varying swarm of bees; measures how
// per-bee load (simulated network work) drops as the pool grows.
func runE7(seed uint64) []*metrics.Table {
	const docs = 60
	t := metrics.NewTable("E7 — per-bee load vs pool size",
		"bees", "tasks finalized", "total bee msgs", "max bee msgs", "imbalance", "rounds")

	for _, bees := range []int{1, 2, 4, 8, 16} {
		c, accts := newCluster(seed, 12, bees, nil, 1_000_000, "pub")
		rounds := publishPages(c, accts, numberedPages(docs, "body of document %04d with assorted content"), 20, 4, 6)

		_, finalized, _ := c.QB.TaskCounts()
		total, maxMsgs := 0, 0
		for _, b := range c.Bees {
			m := b.Cost.Msgs
			total += m
			if m > maxMsgs {
				maxMsgs = m
			}
		}
		imbalance := 0.0
		if total > 0 && bees > 0 {
			mean := float64(total) / float64(bees)
			imbalance = float64(maxMsgs) / mean
		}
		t.AddRow(bees, finalized, total, maxMsgs, imbalance, rounds)
	}
	return []*metrics.Table{t, runE7b(seed)}
}

// runE7b measures the concurrent write-side round engine: the same
// ingest workload, driven round by round, reporting the simulated
// makespan of the parallel waves (bee commit compute, shard
// materialization) against what a sequential driver would pay — the
// round receipts carry both. Pages/s is measured in simulated time
// against the wave makespan.
func runE7b(seed uint64) *metrics.Table {
	const docs = 48
	t := metrics.NewTable("E7b — concurrent write-side rounds (simulated makespan)",
		"bees", "serial", "wave", "speedup", "pages/s (sim)", "ptr writes")

	for _, bees := range []int{1, 2, 4, 8} {
		c, accts := newCluster(seed, 12, bees, nil, 1_000_000, "pub")
		publishPages(c, accts, numberedPages(docs, "ingest round workload document %04d with assorted content"), 0, 0, 0)

		var serial, wave time.Duration
		ptrWrites := 0
		for r := 0; r < 8; r++ {
			rr := c.ProcessRoundReceipt()
			serial += rr.Serial().Latency
			wave += rr.Wave().Latency
			ptrWrites += rr.PointerWrites
			if open, _, _ := c.QB.TaskCounts(); open == 0 {
				break
			}
		}
		speedup := 0.0
		if wave > 0 {
			speedup = float64(serial) / float64(wave)
		}
		pagesPerSec := 0.0
		if wave > 0 {
			pagesPerSec = float64(docs) / wave.Seconds()
		}
		t.AddRow(bees, serial, wave, speedup, pagesPerSec, ptrWrites)
	}
	return t
}

// runE8: sequential vs blocked equality, convergence curve, warm-start
// iterations, and the quorum verification overhead.
func runE8(seed uint64) []*metrics.Table {
	links := make(map[string][]string)
	rng := xrand.New(seed)
	const n = 300
	for i := 0; i < n; i++ {
		var out []string
		for j := 0; j < 1+rng.Intn(4); j++ {
			out = append(out, urlOf(rng.Intn(n)))
		}
		links[urlOf(i)] = out
	}
	g := rank.NewGraph(links)
	opts := rank.DefaultOptions()
	seq := rank.Compute(g, opts)

	t := metrics.NewTable("E8 — distributed page rank",
		"partitions", "iterations", "block msgs", "max |Δ| vs sequential")
	for _, p := range []int{1, 2, 4, 8} {
		blocked, msgs := rank.ComputeBlocked(g, p, opts)
		maxDiff := 0.0
		for i := range seq.Ranks {
			if d := math.Abs(seq.Ranks[i] - blocked.Ranks[i]); d > maxDiff {
				maxDiff = d
			}
		}
		t.AddRow(p, blocked.Iterations, msgs, maxDiff)
	}

	t2 := metrics.NewTable("E8b — convergence (L1 residual by iteration)",
		"iteration", "residual")
	for i, r := range seq.Residuals {
		if i < 12 || i == len(seq.Residuals)-1 {
			t2.AddRow(i+1, r)
		}
	}

	// Warm start after a small graph change.
	links[urlOf(n)] = []string{urlOf(0)}
	g2 := rank.NewGraph(links)
	cold := rank.Compute(g2, opts)
	warm := rank.ComputeFrom(g2, seq.Ranks, opts)
	t3 := metrics.NewTable("E8c — incremental recomputation", "start", "iterations")
	t3.AddRow("cold (uniform)", cold.Iterations)
	t3.AddRow("warm (previous vector)", warm.Iterations)

	// Verification overhead: quorum q bees all compute the full vector.
	t4 := metrics.NewTable("E8d — verification overhead", "quorum", "redundant compute ×")
	for _, q := range []int{1, 3, 5} {
		t4.AddRow(q, q)
	}
	return []*metrics.Table{t, t2, t3, t4}
}
