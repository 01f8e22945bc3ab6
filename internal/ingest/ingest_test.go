package ingest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/netsim"
)

// checkGoroutineLeak fails t when goroutines started during the test
// are still alive 2 s after it (and every later-registered cleanup)
// finished. Call it first; not for t.Parallel tests.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// fakeSink records batches and returns synthetic receipts with fixed
// phase costs, so pipeline tests never boot a cluster.
type fakeSink struct {
	commit, reveal time.Duration
	batches        [][]core.BatchPage
	failOn         int // fail the Nth call (1-based); 0 = never
	onBatch        func(n int)
}

func (s *fakeSink) IndexBatch(pages []core.BatchPage) (core.RoundReceipt, error) {
	cp := append([]core.BatchPage(nil), pages...)
	s.batches = append(s.batches, cp)
	if s.onBatch != nil {
		s.onBatch(len(s.batches))
	}
	if s.failOn > 0 && len(s.batches) == s.failOn {
		return core.RoundReceipt{}, errors.New("sink exploded")
	}
	return core.RoundReceipt{
		Materialized:    1,
		CommitWave:      netsim.Cost{Latency: s.commit},
		MaterializeWave: netsim.Cost{Latency: s.reveal},
	}, nil
}

func (s *fakeSink) published() []string {
	var out []string
	for _, b := range s.batches {
		for _, p := range b {
			out = append(out, p.URL)
		}
	}
	return out
}

// chainPages builds a linked list of n distinct pages: page i links to
// page i+1; the last page links to a dangling URL.
func chainPages(n int) []Page {
	pages := make([]Page, n)
	for i := range pages {
		pages[i] = Page{
			URL:  fmt.Sprintf("dweb://t/p%03d", i),
			Text: testText(i, 60),
		}
		if i+1 < n {
			pages[i].Links = []string{fmt.Sprintf("dweb://t/p%03d", i+1)}
		} else {
			pages[i].Links = []string{"dweb://t/missing"}
		}
	}
	return pages
}

// testText builds distinct word-soup per id so no two pages are
// near-duplicates.
func testText(id, words int) string {
	var b strings.Builder
	for w := 0; w < words; w++ {
		fmt.Fprintf(&b, "toka%d tokb%d ", (id*97+w*7)%61, (id*53+w*13)%43)
	}
	return b.String()
}

func TestIngestFrontierDiscovery(t *testing.T) {
	pages := chainPages(10)
	sink := &fakeSink{commit: time.Millisecond, reveal: time.Millisecond}
	st, err := Crawl(context.Background(), MapSource(pages), sink,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 4, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The whole chain is reachable from the single seed, in link order.
	want := make([]string, len(pages))
	for i := range pages {
		want[i] = pages[i].URL
	}
	if got := sink.published(); !reflect.DeepEqual(got, want) {
		t.Fatalf("published %v, want %v", got, want)
	}
	if st.Fetched != 10 || st.Published != 10 || st.Batches != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Dangling != 1 {
		t.Fatalf("dangling = %d, want 1 (the missing link)", st.Dangling)
	}
	if st.Makespan <= 0 || st.PagesPerSec() <= 0 {
		t.Fatalf("no makespan accounted: %+v", st)
	}
}

// TestIngestSingleSeedChainCompletes provokes the worker-exit race: after
// a single seed the sequencer is always caught up with the frontier, so if
// nextSeq ever moves before the page's links are appended, every idle
// worker (FetchWorkers ≫ frontier) can leave in that window and the crawl
// hangs on links nobody fetches. Each iteration runs under its own
// deadline so a regression fails here instead of wedging the suite.
func TestIngestSingleSeedChainCompletes(t *testing.T) {
	checkGoroutineLeak(t)
	pages := chainPages(40)
	src := MapSource(pages)
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st, err := Crawl(ctx, src, &fakeSink{}, []string{pages[0].URL},
			Options{Seed: uint64(i), FetchWorkers: 16, BatchSize: 8, QueueDepth: 4})
		cancel()
		if err != nil || st.Published != len(pages) {
			t.Fatalf("iteration %d: err = %v, published %d of %d", i, err, st.Published, len(pages))
		}
	}
}

func TestIngestScraperMirrorDemoted(t *testing.T) {
	// The paper's scraper attack: a mirror site republishes page 3's
	// content with a few spliced words, hoping to siphon its traffic.
	pages := chainPages(6)
	mirror := Page{
		URL:  "dweb://scraper/copy",
		Text: pages[3].Text + " sponsored mirror links here",
	}
	pages[5].Links = []string{mirror.URL}
	all := append(append([]Page(nil), pages...), mirror)
	sink := &fakeSink{}
	st, err := Crawl(context.Background(), MapSource(all), sink,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deduped != 1 {
		t.Fatalf("Deduped = %d, want 1; stats %+v", st.Deduped, st)
	}
	for _, url := range sink.published() {
		if url == mirror.URL {
			t.Fatal("demoted mirror was published")
		}
	}
	if st.Published != 6 || st.Fetched != 7 {
		t.Fatalf("stats %+v", st)
	}

	// With demotion disabled the mirror publishes like any page.
	sink2 := &fakeSink{}
	st2, err := Crawl(context.Background(), MapSource(all), sink2,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 3, DedupThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Deduped != 0 || st2.Published != 7 {
		t.Fatalf("dedup off: %+v", st2)
	}
}

func TestIngestBackpressureAccounting(t *testing.T) {
	// Expensive rounds + tiny queue: fetchers must stall, the queue
	// must saturate, and pipelined rounds must beat serial ones.
	pages := chainPages(32)
	seeds := make([]string, len(pages))
	for i := range pages {
		seeds[i] = pages[i].URL
	}
	opts := Options{
		Seed: 3, BatchSize: 8, QueueDepth: 4, FetchWorkers: 8,
		MeanFetchLatency: time.Millisecond,
	}
	sink := &fakeSink{commit: 40 * time.Millisecond, reveal: 40 * time.Millisecond}
	st, err := Crawl(context.Background(), MapSource(pages), sink, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}

	if st.QueueDepthMax != opts.QueueDepth {
		t.Fatalf("queue never saturated: depth max %d, want %d", st.QueueDepthMax, opts.QueueDepth)
	}
	if st.StallWait <= 0 {
		t.Fatalf("no producer stall accounted under a full queue: %+v", st)
	}
	if st.Makespan >= st.SerialMakespan {
		t.Fatalf("pipelined makespan %v not better than serial %v", st.Makespan, st.SerialMakespan)
	}
	// Serial rounds never overlap, so their makespan covers every phase.
	if st.SerialMakespan < st.CommitBusy+st.RevealBusy {
		t.Fatalf("serial makespan %v below the summed phases %v", st.SerialMakespan, st.CommitBusy+st.RevealBusy)
	}
	if sp := st.Speedup(); sp <= 1 {
		t.Fatalf("speedup = %v, want > 1", sp)
	}
}

func TestIngestDeterministicRuns(t *testing.T) {
	pages := chainPages(24)
	seeds := []string{pages[0].URL}
	opts := Options{Seed: 9, BatchSize: 5, QueueDepth: 4, FetchWorkers: 6, FetchFailRate: 0.25}
	var prev Stats
	var prevPub []string
	for i := 0; i < 3; i++ {
		sink := &fakeSink{commit: 2 * time.Millisecond, reveal: 3 * time.Millisecond}
		st, err := Crawl(context.Background(), MapSource(pages), sink, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.FetchFailed == 0 {
			t.Fatalf("fail rate drew no failures: %+v", st)
		}
		if i > 0 {
			if st != prev {
				t.Fatalf("run %d stats diverged:\n%+v\n%+v", i, st, prev)
			}
			if !reflect.DeepEqual(sink.published(), prevPub) {
				t.Fatalf("run %d published set diverged", i)
			}
		}
		prev, prevPub = st, sink.published()
	}
	// A failed fetch breaks the chain walk there: everything after the
	// first failure is undiscovered, so fetched+failed < total.
	if prev.Fetched+prev.FetchFailed > len(pages) {
		t.Fatalf("accounted more pages than exist: %+v", prev)
	}
}

func TestIngestMaxPages(t *testing.T) {
	pages := chainPages(30)
	sink := &fakeSink{}
	st, err := Crawl(context.Background(), MapSource(pages), sink,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 4, MaxPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetched != 10 || st.Published != 10 {
		t.Fatalf("MaxPages not honored: %+v", st)
	}
}

func TestIngestSinkError(t *testing.T) {
	pages := chainPages(40)
	seeds := make([]string, len(pages))
	for i := range pages {
		seeds[i] = pages[i].URL
	}
	sink := &fakeSink{failOn: 2}
	st, err := Crawl(context.Background(), MapSource(pages), sink, seeds,
		Options{Seed: 1, BatchSize: 8, QueueDepth: 4})
	if err == nil || !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("err = %v, want sink failure", err)
	}
	// The crawl stops at the failing flush: batch 1 published, batch 2's
	// eight pages fetched and lost, page 17 never fetched.
	if st.Fetched != 16 || st.Published != 8 || st.Batches != 1 {
		t.Fatalf("partial stats %+v, want 16 fetched and exactly the first batch published", st)
	}
}

func TestIngestCancellation(t *testing.T) {
	checkGoroutineLeak(t)
	pages := chainPages(64)
	seeds := make([]string, len(pages))
	for i := range pages {
		seeds[i] = pages[i].URL
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &fakeSink{onBatch: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	st, err := Crawl(ctx, MapSource(pages), sink, seeds,
		Options{Seed: 1, BatchSize: 8, QueueDepth: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// cancel fires inside batch 2's sink call, which still completes;
	// the crawl sees it before fetching page 17.
	if st.Fetched != 16 || st.Published != 16 || st.Batches != 2 {
		t.Fatalf("partial stats %+v, want the crawl to stop after batch 2", st)
	}

	// Cancelled on entry: nothing fetched, nothing published.
	sink = &fakeSink{}
	st, err = Crawl(ctx, MapSource(pages), sink, seeds, Options{Seed: 1, BatchSize: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled on entry: err = %v, want context.Canceled", err)
	}
	if st != (Stats{}) || len(sink.batches) != 0 {
		t.Fatalf("cancelled on entry: stats %+v, %d batches, want none", st, len(sink.batches))
	}
}

func TestIngestEmptyAndAllDangling(t *testing.T) {
	sink := &fakeSink{}
	st, err := Crawl(context.Background(), MapSource(nil), sink,
		[]string{"dweb://nowhere/a", "dweb://nowhere/b"}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dangling != 2 || st.Published != 0 || len(sink.batches) != 0 {
		t.Fatalf("stats %+v, batches %d", st, len(sink.batches))
	}
	if _, err := Crawl(context.Background(), MapSource(nil), sink, nil, Options{Seed: 1}); err != nil {
		t.Fatalf("empty seeds: %v", err)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Fetched: 3, Published: 2, QueueDepthMax: 4, Makespan: time.Second, SerialMakespan: 2 * time.Second}
	b := Stats{Fetched: 1, Deduped: 1, QueueDepthMax: 2, Makespan: time.Second, SerialMakespan: time.Second}
	a.Merge(b)
	if a.Fetched != 4 || a.Deduped != 1 || a.QueueDepthMax != 4 || a.Makespan != 2*time.Second {
		t.Fatalf("merged %+v", a)
	}
	if a.Speedup() != 1.5 {
		t.Fatalf("speedup %v", a.Speedup())
	}
}

// receiptSink is a cluster sink that prints every receipt it returns.
type receiptSink struct {
	Sink
	receipts strings.Builder
}

func (s *receiptSink) IndexBatch(pages []core.BatchPage) (core.RoundReceipt, error) {
	rr, err := s.Sink.IndexBatch(pages)
	fmt.Fprintf(&s.receipts, "%+v %v\n", rr, err)
	return rr, err
}

func (s *receiptSink) RankEpoch(partitions int) { s.Sink.(RankDriver).RankEpoch(partitions) }

// extracting reports whether any goroutine is inside a page's
// extraction (the job fetch starts on the fan-out).
func extracting() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "repro/internal/ingest.fetch.func")
}

// TestCrawlDeterminismAcrossGOMAXPROCS: a crawl extracts pages on the
// fan-out, ahead of the loop, but keeps every draw, dedup decision, sink
// call and simulated RPC on the caller's goroutine in frontier order, so
// the CPU count may reach nothing it reports or leaves behind. Two boots
// at each of GOMAXPROCS 1, 2 and 8 crawl 160 corpus pages and twelve
// scraper mirrors from eight seeds — failed fetches, dangling links and
// rank epochs included — and must agree on Stats, every receipt and every
// node's Digest. A crawl cancelled with extractions started ahead must
// return with none of them still running.
func TestCrawlDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 1
	ccfg.NumDocs = 160
	var web []Page
	for _, d := range corpus.Generate(ccfg).Docs {
		web = append(web, Page{URL: d.URL, Text: d.Text, Links: d.Links})
	}
	var seeds []string
	for i := 0; i < 12; i++ {
		mirror := Page{
			URL:   fmt.Sprintf("dweb://scraper/%d", i),
			Text:  web[i*13].Text + " sponsored mirror",
			Links: []string{"dweb://scraper/gone"},
		}
		web = append(web, mirror)
		seeds = append(seeds, mirror.URL)
	}
	for _, p := range web[120:160] { // corpus pages link to earlier ones
		seeds = append(seeds, p.URL)
	}
	opts := Options{Seed: 1, FetchFailRate: 0.05, RankEvery: 4}

	boot := func() (Stats, string, string) {
		cfg := core.DefaultConfig()
		c := core.NewCluster(cfg)
		owner := c.NewAccount("crawler", 1<<40)
		c.Seal()
		sink := &receiptSink{Sink: NewClusterSink(c, owner)}
		st, err := Crawl(context.Background(), MapSource(web), sink, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range c.Peers {
			d := p.DHT().Digest()
			h.Write(d[:])
		}
		for _, b := range c.Bees {
			d := b.Peer.DHT().Digest()
			h.Write(d[:])
		}
		return st, sink.receipts.String(), hex.EncodeToString(h.Sum(nil))
	}
	var want Stats
	var wantReceipts, wantDigest string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			st, receipts, digest := boot()
			if wantReceipts == "" {
				want, wantReceipts, wantDigest = st, receipts, digest
				if st.Published < 100 || st.Deduped == 0 || st.FetchFailed == 0 || st.Dangling == 0 || st.RankEpochs == 0 {
					t.Fatalf("the crawl misses a path it must cover: %+v", st)
				}
				continue
			}
			if st != want {
				t.Fatalf("GOMAXPROCS=%d run %d: stats %+v, want %+v", procs, run, st, want)
			}
			if receipts != wantReceipts {
				t.Fatalf("GOMAXPROCS=%d run %d: receipts diverged:\n got %s\nwant %s", procs, run, receipts, wantReceipts)
			}
			if digest != wantDigest {
				t.Fatalf("GOMAXPROCS=%d run %d: DHT state diverged: %s, want %s", procs, run, digest, wantDigest)
			}
		}
	}

	// Long pages keep the extractions started ahead of the loop busy
	// when the cancel lands inside the first flush.
	long := chainPages(2 * extractAhead)
	for i := range long {
		long[i].Text = testText(i, 4000)
	}
	var longSeeds []string
	for _, p := range long {
		longSeeds = append(longSeeds, p.URL)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		sink := &fakeSink{onBatch: func(int) { cancel() }}
		st, err := Crawl(ctx, MapSource(long), sink, longSeeds, Options{Seed: 1, BatchSize: 4, DedupThreshold: -1})
		if !errors.Is(err, context.Canceled) || st.Published != 4 {
			t.Fatalf("GOMAXPROCS=%d: err = %v, stats %+v, want cancelled after one batch", procs, err, st)
		}
		if extracting() {
			t.Fatalf("GOMAXPROCS=%d: the cancelled crawl returned with an extraction still running", procs)
		}
	}
}
