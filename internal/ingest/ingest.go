// Package ingest is the streaming crawl/ingest driver: a frontier walk
// over the corpus link graph, an extractor (analysis + MinHash
// signature), near-duplicate demotion against already-accepted pages,
// and a batch publisher driving commit/reveal rounds through a Sink.
//
// A crawl is one loop on the caller's goroutine — fetch, dedup, discover
// links, batch, flush — so the sink sees the call sequence a sequential
// PublishBatch loop would issue and leaves the cluster byte-identical to
// one. Only extraction, which is pure, runs ahead of the loop on the
// fan-out (internal/fanout), and the loop reads it back in frontier
// order. The fetcher pool, the bounded fetcher→indexer queue and the
// overlap of one round's reveal with the next one's commit exist in
// simulated virtual time only: every fetch gets a seeded latency and a
// place on a virtual worker pool, and computeSchedule replays queue and
// rounds over those times to produce the throughput numbers in Stats.
// docs/ingest.md has the full design and the determinism rules.
package ingest

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/index"
	"repro/internal/xrand"
)

// Defaults for Options zero values.
const (
	DefaultFetchWorkers   = 4
	DefaultQueueDepth     = 8
	DefaultBatchSize      = 16
	DefaultDedupThreshold = 0.85
	DefaultFetchLatency   = 20 * time.Millisecond
)

// Simulated compute rates of the fetch/extract stage.
const (
	fetchPerByte    = 200 * time.Nanosecond // wire transfer after first byte
	extractPerToken = 2 * time.Microsecond  // analysis + signature
)

// Options tunes a crawl. The zero value gives a sensible default
// pipeline; Seed must be set explicitly for reproducible runs.
type Options struct {
	// Seed drives every simulated draw (per-URL fetch latency and
	// failure). Same seed + same source + same seeds ⇒ same crawl.
	Seed uint64
	// FetchWorkers is the fetcher parallelism of the simulated schedule:
	// each fetch is placed on the least-loaded of this many virtual
	// workers.
	FetchWorkers int
	// QueueDepth bounds the simulated fetcher→indexer queue: a fetched
	// page waits (StallWait) while this many are still queued behind a
	// busy indexer.
	QueueDepth int
	// BatchSize is pages per publish round.
	BatchSize int
	// MaxPages caps the frontier (seeds + discovered links); 0 = no cap.
	MaxPages int
	// DedupThreshold is the MinHash similarity at which a page is
	// demoted as a near-duplicate of an already-accepted page
	// (the paper's scraper-mirror defense). 0 selects
	// DefaultDedupThreshold; negative disables demotion.
	DedupThreshold float64
	// FetchFailRate is the per-URL simulated fetch failure probability.
	FetchFailRate float64
	// MeanFetchLatency is the mean simulated first-byte latency; actual
	// per-URL latency is uniform in [0.5, 1.5)× the mean.
	MeanFetchLatency time.Duration
	// RankEvery drives one page-rank epoch through the sink after every
	// RankEvery flushed batches (0 = never). The sink decides full vs
	// delta (a cluster sink uses the delta scheduler with its configured
	// full-recompute cadence); a sink that implements no RankDriver
	// ignores the cadence. Epochs run between rounds on the caller's
	// goroutine, so the batch order the sink sees is unchanged.
	RankEvery int
	// RankPartitions is the partition count of each driven epoch
	// (0 selects one partition).
	RankPartitions int
}

func (o Options) withDefaults() Options {
	if o.FetchWorkers <= 0 {
		o.FetchWorkers = DefaultFetchWorkers
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.DedupThreshold == 0 {
		o.DedupThreshold = DefaultDedupThreshold
	}
	if o.MeanFetchLatency <= 0 {
		o.MeanFetchLatency = DefaultFetchLatency
	}
	return o
}

// Stats is the pipeline's counters and simulated-time accounting.
type Stats struct {
	Fetched     int // pages fetched and extracted
	FetchFailed int // simulated fetch failures
	Dangling    int // frontier URLs the source could not resolve
	Deduped     int // pages demoted as near-duplicates
	Published   int // pages indexed through the sink
	Batches     int // publish rounds driven
	RankEpochs  int // page-rank epochs driven mid-crawl (Options.RankEvery)
	RoundErrors int // per-bee errors across all round receipts

	QueueDepthMax int           // peak pages simultaneously queued
	QueueWait     time.Duration // Σ simulated time pages sat in the queue
	StallWait     time.Duration // Σ simulated time fetch results waited to enqueue (resequencing + backpressure)

	CommitBusy time.Duration // Σ commit-phase cost (core.RoundReceipt.CommitStage: store and commit wave)
	RevealBusy time.Duration // Σ reveal-phase cost (materialize wave, the announce wave beside it)

	// Makespan is the crawl's simulated wall time with pipelined rounds
	// (batch N+1's commit overlaps round N's reveal); SerialMakespan is
	// the same crawl costed with serial (non-overlapping) rounds. Their
	// ratio is the pipelining speedup.
	Makespan       time.Duration
	SerialMakespan time.Duration
}

// PagesPerSec is indexing throughput in simulated time.
func (s Stats) PagesPerSec() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	return float64(s.Published) / s.Makespan.Seconds()
}

// Speedup is the simulated makespan ratio of serial over pipelined
// rounds for this crawl (0 with no makespan).
func (s Stats) Speedup() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	return float64(s.SerialMakespan) / float64(s.Makespan)
}

// Merge accumulates another crawl's stats into s (counters and busy
// times sum, makespans sum as back-to-back crawls, peak depth is the
// max). Engine-level ingest counters aggregate with this.
func (s *Stats) Merge(o Stats) {
	s.Fetched += o.Fetched
	s.FetchFailed += o.FetchFailed
	s.Dangling += o.Dangling
	s.Deduped += o.Deduped
	s.Published += o.Published
	s.Batches += o.Batches
	s.RankEpochs += o.RankEpochs
	s.RoundErrors += o.RoundErrors
	if o.QueueDepthMax > s.QueueDepthMax {
		s.QueueDepthMax = o.QueueDepthMax
	}
	s.QueueWait += o.QueueWait
	s.StallWait += o.StallWait
	s.CommitBusy += o.CommitBusy
	s.RevealBusy += o.RevealBusy
	s.Makespan += o.Makespan
	s.SerialMakespan += o.SerialMakespan
}

// extractAhead is how many frontier entries ahead of the one the loop
// handles a resolved page's extraction may start. Extraction is pure, so
// how far ahead it runs changes no result, only how much of it overlaps
// the rounds the loop drives.
const extractAhead = 64

// fetchResult is what fetching one frontier URL yields.
type fetchResult struct {
	page     Page
	dangling bool
	failed   bool
	latency  time.Duration // simulated fetch time; read adds extraction
	extract  *fanout.Job[extraction]
}

// extraction is the pure part of a fetch: the page's analysis and its
// MinHash signature.
type extraction struct {
	tokens int
	sig    index.MinHashSig
}

// fetch simulates retrieving one URL and starts extracting its content
// on ex. All randomness is drawn from a per-URL named stream, so the
// result is a pure function of (seed, url). A page that fails is never
// extracted.
func fetch(src Source, opts Options, ex *fanout.Group, url string) fetchResult {
	rng := xrand.NewNamed(opts.Seed, "ingest:fetch:"+url)
	r := fetchResult{
		latency: time.Duration((0.5 + rng.Float64()) * float64(opts.MeanFetchLatency)),
	}
	page, ok := src.Resolve(url)
	if !ok {
		r.dangling = true
		return r
	}
	if rng.Bool(opts.FetchFailRate) {
		r.failed = true
		return r
	}
	r.page = page
	r.extract = fanout.Start(ex, func() extraction {
		toks := index.Analyze(page.Text)
		return extraction{tokens: len(toks), sig: index.SignatureOfTokens(toks)}
	})
	return r
}

// read waits for r's extraction, if it has one, and gives the page's
// signature, adding the extraction's simulated cost to r's latency.
func (r *fetchResult) read() index.MinHashSig {
	if r.extract == nil {
		return nil
	}
	x := r.extract.Wait()
	r.latency += time.Duration(len(r.page.Text))*fetchPerByte + time.Duration(x.tokens)*extractPerToken
	return x.sig
}

// batchCost is one driven round's phase costs.
type batchCost struct {
	size           int
	commit, reveal time.Duration
}

// Crawl walks the frontier from seeds over src's link graph, extracts
// and dedups pages, and indexes them through sink in BatchSize batches.
// Everything but extraction runs on the caller's goroutine: resolving
// and drawing each URL, link discovery, dedup, batching and every sink
// call. Each resolved page's extraction starts on the fan-out up to
// extractAhead frontier entries ahead of the loop, which reads the
// results back in frontier order. It returns when the frontier is
// exhausted, when ctx is found cancelled before a page is fetched
// (ctx's error; pages of the unfinished batch are not published), or
// when the sink fails (its error). Either way Stats describes exactly
// the pages handled up to that point, and no extraction is left running.
func Crawl(ctx context.Context, src Source, sink Sink, seeds []string, opts Options) (Stats, error) {
	opts = opts.withDefaults()
	var st Stats

	// Frontier: seeds, then links in discovery order, each URL once.
	var frontier []string
	var disc []time.Duration // virtual discovery time per frontier entry
	visited := make(map[string]bool)
	discover := func(urls []string, at time.Duration) {
		for _, u := range urls {
			if visited[u] {
				continue
			}
			if opts.MaxPages > 0 && len(frontier) >= opts.MaxPages {
				break
			}
			visited[u] = true
			frontier = append(frontier, u)
			disc = append(disc, at)
		}
	}
	discover(seeds, 0)

	free := make([]time.Duration, opts.FetchWorkers) // virtual worker pool
	var sigs *index.SigIndex
	if opts.DedupThreshold >= 0 {
		sigs = index.NewSigIndex(0)
	}

	var done []time.Duration // virtual fetch completion per accepted page
	var batches []batchCost
	var batch []core.BatchPage
	flush := func() error {
		rr, err := sink.IndexBatch(batch)
		if err != nil {
			return err
		}
		st.Published += len(batch)
		st.Batches++
		st.RoundErrors += len(rr.Errors)
		b := batchCost{
			size:   len(batch),
			commit: rr.CommitStage().Latency,
			reveal: rr.MaterializeWave.Par(rr.AnnounceWave).Latency,
		}
		batches = append(batches, b)
		st.CommitBusy += b.commit
		st.RevealBusy += b.reveal
		batch = batch[:0]
		if opts.RankEvery > 0 && st.Batches%opts.RankEvery == 0 {
			if rd, ok := sink.(RankDriver); ok {
				parts := opts.RankPartitions
				if parts <= 0 {
					parts = 1
				}
				rd.RankEpoch(parts)
				st.RankEpochs++
			}
		}
		return nil
	}

	ex := fanout.New()
	defer ex.Wait()
	var ahead []fetchResult // fetches of frontier[i:i+len(ahead)]
	var err error
	for i := 0; i < len(frontier); i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		for len(ahead) <= extractAhead && i+len(ahead) < len(frontier) {
			ahead = append(ahead, fetch(src, opts, ex, frontier[i+len(ahead)]))
		}
		r := ahead[0]
		ahead = ahead[1:]
		sig := r.read()

		// Virtual fetch schedule: the least-loaded simulated worker
		// picks the URL up no earlier than its discovery time.
		w := 0
		for j, f := range free {
			if f < free[w] {
				w = j
			}
		}
		at := max(free[w], disc[i]) + r.latency
		free[w] = at

		if r.dangling {
			st.Dangling++
			continue
		}
		if r.failed {
			st.FetchFailed++
			continue
		}
		st.Fetched++
		discover(r.page.Links, at)
		if sigs != nil {
			if key, sim := sigs.Nearest(sig); key != "" && sim >= opts.DedupThreshold {
				st.Deduped++
				continue // links still crawl; only the content is demoted
			}
			sigs.Add(r.page.URL, sig)
		}
		done = append(done, at)
		batch = append(batch, r.page)
		if len(batch) >= opts.BatchSize {
			if err = flush(); err != nil {
				break
			}
		}
	}
	if err == nil && len(batch) > 0 {
		err = flush()
	}
	done = done[:st.Published] // drop pages never flushed (cancel/error)

	sched := computeSchedule(done, batches, opts.QueueDepth, false)
	st.QueueWait = sched.queueWait
	st.StallWait = sched.stallWait
	st.QueueDepthMax = sched.depthMax
	st.Makespan = sched.makespan
	st.SerialMakespan = computeSchedule(done, batches, opts.QueueDepth, true).makespan
	return st, err
}

// virtualSchedule is the derived simulated timeline of one crawl.
type virtualSchedule struct {
	makespan  time.Duration
	queueWait time.Duration
	stallWait time.Duration
	depthMax  int
}

// computeSchedule replays the queue and round phases in virtual time.
// Pages enqueue in release order into a QueueDepth-bounded queue; the
// indexer dequeues when free and launches a round per batch. Pipelined
// rounds free the indexer at commit end (batch N+1 overlaps round N's
// reveal); serial rounds hold it until reveal end. The recurrence:
//
//	enq[i]        = max(done[i], enq[i-1], deq[i-depth])
//	deq[i]        = max(enq[i], consumerFree)
//	commitStart_k = max(deq[last page of k], commitEnd_{k-1})
//	revealStart_k = max(commitEnd_k, revealEnd_{k-1})
//	consumerFree  = commitEnd_k (pipelined) | revealEnd_k (serial)
func computeSchedule(done []time.Duration, batches []batchCost, depth int, serial bool) virtualSchedule {
	var s virtualSchedule
	n := 0
	for _, b := range batches {
		n += b.size
	}
	if n == 0 {
		return s
	}
	enq := make([]time.Duration, n)
	deq := make([]time.Duration, n)
	var consumerFree, commitEnd, revealEnd, prevEnq time.Duration
	idx := 0
	for _, b := range batches {
		for j := 0; j < b.size; j++ {
			e := done[idx]
			if prevEnq > e {
				e = prevEnq
			}
			if idx >= depth && deq[idx-depth] > e {
				e = deq[idx-depth] // queue full: block until a slot frees
			}
			enq[idx] = e
			prevEnq = e
			s.stallWait += e - done[idx]
			d := e
			if consumerFree > d {
				d = consumerFree
			}
			deq[idx] = d
			s.queueWait += d - e
			idx++
		}
		commitStart := deq[idx-1]
		if commitEnd > commitStart {
			commitStart = commitEnd
		}
		commitEnd = commitStart + b.commit
		revealStart := commitEnd
		if revealEnd > revealStart {
			revealStart = revealEnd
		}
		revealEnd = revealStart + b.reveal
		if serial {
			consumerFree = revealEnd
		} else {
			consumerFree = commitEnd
		}
	}
	s.makespan = revealEnd
	// Peak queue depth: enq and deq are monotone, so sweep two pointers.
	dq := 0
	for i := range enq {
		for dq < i && deq[dq] <= enq[i] {
			dq++
		}
		if d := i - dq + 1; d > s.depthMax {
			s.depthMax = d
		}
	}
	return s
}
