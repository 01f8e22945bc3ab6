package queenbee

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/contracts"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/ingest"
)

// ingestWorkload drives one mixed write-side workload against an
// engine: a batch publish, individual publishes, a batch republish
// (freshness + stats dedup) and enough rounds to drain every task. It
// returns the receipts of the two batch rounds.
func ingestWorkload(tb testing.TB, e *Engine, seed uint64) []RoundReceipt {
	tb.Helper()
	owner := e.NewAccount("ingest-owner", 10_000_000)
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = 18
	corp := corpus.Generate(ccfg)

	// The first 12 documents land as one batch → one index task.
	batch := make([]Page, 0, 12)
	for _, d := range corp.Docs[:12] {
		batch = append(batch, Page{URL: d.URL, Text: d.Text, Links: d.Links})
	}
	first, err := e.PublishBatch(owner, batch)
	if err != nil {
		tb.Fatal(err)
	} else if len(first.Errors) > 0 {
		tb.Fatalf("batch round errors: %v", first.Errors)
	}
	// The rest publish individually — many tasks in shared rounds.
	for _, d := range corp.Docs[12:] {
		if err := e.Publish(owner, d.URL, d.Text, d.Links); err != nil {
			tb.Fatal(err)
		}
	}
	// Republish two pages (Seq 2) in a second batch.
	second, err := e.PublishBatch(owner, []Page{
		{URL: corp.Docs[0].URL, Text: corp.Docs[0].Text + " freshly revised"},
		{URL: corp.Docs[1].URL, Text: corp.Docs[1].Text + " also revised"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	e.RunUntilIdle()
	return []RoundReceipt{first, second}
}

// dhtWriteState serializes what a deployment's write side leaves behind:
// each shard's pointer record and every linked segment's raw bytes (by
// digest) from the DHT, and the collection statistics from the chain.
// This is the state the write-side determinism contract covers.
func dhtWriteState(tb testing.TB, e *Engine) string {
	tb.Helper()
	d := e.Cluster.Peers[1].DHT()
	state := struct {
		Shards map[int]json.RawMessage
		Segs   map[string]string
		Stats  contracts.IndexStats
	}{Shards: map[int]json.RawMessage{}, Segs: map[string]string{}, Stats: e.Cluster.QB.IndexStats()}

	numShards := e.Cluster.Config().NumShards
	for shard := 0; shard < numShards; shard++ {
		val, _, _, err := d.GetCtx(context.Background(), dht.KeyOfString(index.ShardPointerKey(shard)))
		if err != nil {
			continue // untouched shard
		}
		state.Shards[shard] = append(json.RawMessage(nil), val...)
		var ptr struct{ Digests []string }
		if err := json.Unmarshal(val, &ptr); err != nil {
			tb.Fatalf("shard %d: corrupt pointer %q: %v", shard, val, err)
		}
		for _, dg := range ptr.Digests {
			seg, _, err := d.GetImmutableCtx(context.Background(), dht.KeyOfString(index.SegmentKey(dg)))
			if err != nil {
				tb.Fatalf("segment %s unreachable: %v", dg[:8], err)
			}
			state.Segs[dg] = string(seg)
		}
	}
	out, err := json.Marshal(state)
	if err != nil {
		tb.Fatal(err)
	}
	return string(out)
}

// TestWriteDeterminismSameSeedTwice is the write-side determinism
// contract: the same seed and workload must leave byte-identical state —
// shard pointers, segment bytes, on-chain stats — and identical round
// receipts run over run. Goroutine scheduling must never leak into either.
func TestWriteDeterminismSameSeedTwice(t *testing.T) {
	build := func() (string, string) {
		e := New(WithSeed(23), WithPeers(10), WithBees(4))
		receipts := ingestWorkload(t, e, 23)
		for i, rr := range receipts {
			if rr.AnnounceWave.Latency == 0 || len(rr.Passes) == 0 {
				t.Fatalf("batch round %d carries no announce wave or no materialize legs to compare: %+v", i, rr)
			}
		}
		return dhtWriteState(t, e), fmt.Sprintf("%+v", receipts)
	}
	a, ra := build()
	b, rb := build()
	if a != b {
		t.Fatalf("same-seed runs diverged:\nfirst  %s\nsecond %s", a, b)
	}
	// The receipts too, latencies included — commit, announce and every
	// materialize leg.
	if ra != rb {
		t.Fatalf("same-seed round receipts diverged:\nfirst  %s\nsecond %s", ra, rb)
	}
}

// TestIngestPipelineDeterminism is the streaming-ingest determinism
// contract (ISSUE 7 acceptance): a pipelined crawl — real fetch worker
// goroutines, bounded queue at depth 4, 8 bees — must leave the DHT
// byte-identical to a plain sequential PublishBatch loop over the same
// pages under the same seed. Pipelining must only show up in the
// simulated makespan. Runs under -race and in the -count=2 determinism
// re-run.
func TestIngestPipelineDeterminism(t *testing.T) {
	const seed = 7
	const batchSize = 16
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = 48
	corp := corpus.Generate(ccfg)
	pages := make([]Page, len(corp.Docs))
	seeds := make([]string, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
		seeds[i] = d.URL
	}
	boot := func() (*Engine, *Account) {
		e := New(WithSeed(seed), WithPeers(12), WithBees(8))
		return e, e.NewAccount("crawler", 10_000_000)
	}
	// Seeding every URL makes the reference loop trivial to construct:
	// frontier order is URL order, so batches are consecutive slices.
	// Dedup is off so batch membership is position-independent; the
	// demotion path has its own determinism coverage in internal/ingest.
	crawled, owner := boot()
	st, err := ingest.Crawl(context.Background(), ingest.MapSource(pages),
		ingest.NewClusterSink(crawled.Cluster, owner.acct), seeds, ingest.Options{
			Seed: seed, QueueDepth: 4, BatchSize: batchSize,
			FetchWorkers: 4, DedupThreshold: -1,
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != len(pages) || st.Batches != 3 || st.RoundErrors != 0 {
		t.Fatalf("crawl stats %+v", st)
	}
	if st.Makespan >= st.SerialMakespan {
		t.Fatalf("pipelined rounds gained nothing: makespan %v vs serial %v",
			st.Makespan, st.SerialMakespan)
	}

	ref, refOwner := boot()
	for i := 0; i < len(pages); i += batchSize {
		end := i + batchSize
		if end > len(pages) {
			end = len(pages)
		}
		if _, err := ref.PublishBatch(refOwner, pages[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	want := dhtWriteState(t, ref)
	if got := dhtWriteState(t, crawled); got != want {
		t.Fatalf("pipelined crawl DHT state diverged from sequential PublishBatch loop:\ncrawl %s\nloop  %s", got, want)
	}
}

// TestIngestStatsRerunIdentical pins the COST side of the crawl's
// determinism contract: two fresh engines, same seed, full Stats
// structs equal — including the simulated wave costs (CommitBusy,
// RevealBusy, Makespan), which state-only comparisons miss. Each run
// also checks that Engine.Crawl folds its stats into IngestStats.
func TestIngestStatsRerunIdentical(t *testing.T) {
	run := func() IngestStats {
		e := New(WithSeed(11), WithPeers(12), WithBees(4))
		ccfg := corpus.DefaultConfig()
		ccfg.Seed = 11
		ccfg.NumDocs = 24
		corp := corpus.Generate(ccfg)
		pages := make([]Page, len(corp.Docs))
		seeds := make([]string, len(corp.Docs))
		for i, d := range corp.Docs {
			pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
			seeds[i] = d.URL
		}
		st, err := e.Crawl(context.Background(), seeds, CrawlOptions{Pages: pages})
		if err != nil {
			t.Fatal(err)
		}
		if agg := e.IngestStats(); agg != st {
			t.Fatalf("engine accumulator %+v != crawl stats %+v", agg, st)
		}
		return st
	}
	base := run()
	for trial := 0; trial < 2; trial++ {
		if st := run(); st != base {
			t.Fatalf("crawl stats diverged on rerun %d:\n  base %+v\n  got  %+v", trial, base, st)
		}
	}
}

// TestIngestConcurrentThroughput is the write-side counterpart of
// TestQueryConcurrentThroughput: one round ingesting a spread of tasks
// across 8 bees must cost (in simulated time) at most half of what the
// sequential drive pays — the ≥2× write concurrency claim BenchmarkIngest
// reports. The bees' concurrency is simulated: each wave folds its legs
// with Par.
func TestIngestConcurrentThroughput(t *testing.T) {
	e := New(WithSeed(5), WithPeers(16), WithBees(8))
	owner := e.NewAccount("throughput-owner", 10_000_000)
	for i := 0; i < 32; i++ {
		if _, err := e.Cluster.Publish(owner.acct, e.Cluster.RandomPeer(),
			fmt.Sprintf("dweb://tp/%03d", i),
			fmt.Sprintf("throughput workload document %03d with shared vocabulary", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Cluster.Seal()

	var serial, wave time.Duration
	for r := 0; r < 8; r++ {
		rr := e.RunRound()
		serial += rr.Serial().Latency
		wave += rr.Wave().Latency
		if open, _, _ := e.Cluster.QB.TaskCounts(); open == 0 {
			break
		}
	}
	if open, _, _ := e.Cluster.QB.TaskCounts(); open != 0 {
		t.Fatalf("%d tasks still open", open)
	}
	if wave == 0 {
		t.Fatal("rounds accumulated no simulated cost")
	}
	speedup := float64(serial) / float64(wave)
	t.Logf("write-side simulated makespan: serial %v, wave %v → %.1f× at 8 bees", serial, wave, speedup)
	if speedup < 2 {
		t.Fatalf("write-side speedup at 8 bees = %.2f×, want ≥ 2×", speedup)
	}
}
