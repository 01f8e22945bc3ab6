// Package ingest is the streaming crawl/ingest pipeline: a simulated
// fetcher pool feeding a frontier walk over the corpus link graph, an
// extractor (analysis + MinHash signature), a bounded queue with real
// backpressure, near-duplicate demotion against already-accepted pages,
// and a batch publisher driving pipelined commit/reveal rounds.
//
// Execution is really concurrent (fetch workers are goroutines, the
// queue is a bounded channel), yet the pipeline is deterministic: the
// sequencer releases pages in frontier order, every sink call happens
// in batch order from one goroutine, and all timing lives in simulated
// virtual time derived from the seed — so a pipelined crawl leaves the
// cluster byte-identical to a sequential PublishBatch loop over the
// same pages. docs/ingest.md has the full design and the determinism
// rules.
package ingest

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
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
	// FetchWorkers is the fetcher parallelism — both the real goroutine
	// count and the virtual workers of the simulated fetch schedule.
	FetchWorkers int
	// QueueDepth bounds the fetcher→indexer queue. Producers block
	// (really, and in simulated time) when the indexer falls behind.
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
	// ignores the cadence. Epochs run between rounds on the indexer
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

	CommitBusy time.Duration // Σ commit-phase cost (store + commit wave)
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

// fetchResult is one worker's output for a claimed frontier URL.
type fetchResult struct {
	page     Page
	dangling bool
	failed   bool
	latency  time.Duration // simulated fetch + extract time
	sig      index.MinHashSig
}

// item is one accepted page released to the indexer.
type item struct {
	page Page
	done time.Duration // virtual fetch-completion time
}

// crawl is one pipeline run's shared state.
type crawl struct {
	opts Options
	src  Source
	sink Sink

	mu       sync.Mutex
	cond     *sync.Cond
	frontier []string        // claim queue, in discovery order
	disc     []time.Duration // virtual discovery time per frontier entry
	claimed  int             // next frontier index to claim
	visited  map[string]bool
	results  map[int]fetchResult // out-of-order worker results by frontier index
	nextSeq  int                 // next frontier index to release in order
	stopped  bool
	cause    error

	quit chan struct{} // closed by stop()
	ch   chan item     // the bounded queue
}

// Crawl runs the pipeline: walk the frontier from seeds over src's link
// graph, extract and dedup pages, and index them through sink in
// BatchSize batches. It returns when the frontier is exhausted, ctx is
// cancelled (returns ctx's error with partial stats), or the sink fails
// (returns its error with partial stats).
func Crawl(ctx context.Context, src Source, sink Sink, seeds []string, opts Options) (Stats, error) {
	opts = opts.withDefaults()
	c := &crawl{
		opts:    opts,
		src:     src,
		sink:    sink,
		visited: make(map[string]bool),
		results: make(map[int]fetchResult),
		quit:    make(chan struct{}),
		ch:      make(chan item, opts.QueueDepth),
	}
	c.cond = sync.NewCond(&c.mu)
	for _, s := range seeds {
		if c.visited[s] {
			continue
		}
		if opts.MaxPages > 0 && len(c.frontier) >= opts.MaxPages {
			break
		}
		c.visited[s] = true
		c.frontier = append(c.frontier, s)
		c.disc = append(c.disc, 0)
	}

	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			c.stop(ctx.Err())
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < opts.FetchWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.worker()
		}()
	}
	var seqStats Stats
	wg.Add(1)
	go func() {
		defer wg.Done()
		seqStats = c.sequence()
	}()

	stats, sinkErr := c.index()
	wg.Wait()
	stats.Merge(seqStats)
	if sinkErr != nil {
		return stats, sinkErr
	}
	return stats, c.stopCause()
}

// stop halts the pipeline once, recording the first cause.
func (c *crawl) stop(err error) {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		c.cause = err
		close(c.quit)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

func (c *crawl) stopCause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// worker claims frontier URLs and fetches/extracts them concurrently.
// Results park in c.results for the sequencer to release in order.
func (c *crawl) worker() {
	for {
		c.mu.Lock()
		// The frontier can still grow while unsequenced entries remain
		// (their pages may carry undiscovered links) — wait, don't exit.
		for !c.stopped && c.claimed >= len(c.frontier) && c.nextSeq < len(c.frontier) {
			c.cond.Wait()
		}
		if c.stopped || c.claimed >= len(c.frontier) {
			c.mu.Unlock()
			return
		}
		seq := c.claimed
		url := c.frontier[seq]
		c.claimed++
		c.mu.Unlock()

		r := c.fetch(url)

		c.mu.Lock()
		c.results[seq] = r
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// fetch simulates retrieving one URL and really extracts its content.
// All randomness is drawn from a per-URL named stream, so the result is
// a pure function of (seed, url) no matter which worker runs it.
func (c *crawl) fetch(url string) fetchResult {
	rng := xrand.NewNamed(c.opts.Seed, "ingest:fetch:"+url)
	r := fetchResult{
		latency: time.Duration((0.5 + rng.Float64()) * float64(c.opts.MeanFetchLatency)),
	}
	page, ok := c.src.Resolve(url)
	if !ok {
		r.dangling = true
		return r
	}
	if rng.Bool(c.opts.FetchFailRate) {
		r.failed = true
		return r
	}
	r.page = page
	toks := len(index.Analyze(page.Text))
	r.latency += time.Duration(len(page.Text))*fetchPerByte + time.Duration(toks)*extractPerToken
	r.sig = index.SignatureOf(page.Text)
	return r
}

// sequence releases fetch results strictly in frontier order: assigns
// each its virtual fetch-completion time on the simulated worker pool,
// applies near-duplicate demotion, discovers links (growing the
// frontier deterministically), and enqueues accepted pages on the
// bounded queue — blocking for real when the indexer falls behind.
func (c *crawl) sequence() Stats {
	defer close(c.ch)
	var st Stats
	free := make([]time.Duration, c.opts.FetchWorkers) // virtual worker pool
	var sigs *index.SigIndex
	if c.opts.DedupThreshold >= 0 {
		sigs = index.NewSigIndex(0)
	}
	for {
		c.mu.Lock()
		for {
			if c.stopped {
				c.mu.Unlock()
				return st
			}
			if c.nextSeq >= len(c.frontier) {
				c.mu.Unlock()
				return st // every discovered URL sequenced: crawl complete
			}
			if _, ok := c.results[c.nextSeq]; ok {
				break
			}
			c.cond.Wait()
		}
		seq := c.nextSeq
		r := c.results[seq]
		delete(c.results, seq)
		discovered := c.disc[seq]
		c.mu.Unlock()

		// Virtual fetch schedule: the least-loaded simulated worker
		// picks the URL up no earlier than its discovery time.
		w := 0
		for i, f := range free {
			if f < free[w] {
				w = i
			}
		}
		start := free[w]
		if discovered > start {
			start = discovered
		}
		done := start + r.latency
		free[w] = done

		if r.dangling {
			st.Dangling++
			c.release(nil, done)
			continue
		}
		if r.failed {
			st.FetchFailed++
			c.release(nil, done)
			continue
		}
		st.Fetched++
		demoted := false
		if sigs != nil {
			if key, sim := sigs.Nearest(r.sig); key != "" && sim >= c.opts.DedupThreshold {
				demoted = true
				st.Deduped++
			} else {
				sigs.Add(r.page.URL, r.sig)
			}
		}
		c.release(r.page.Links, done)
		if demoted {
			continue // links still crawl; only the content is demoted
		}
		select {
		case c.ch <- item{page: r.page, done: done}:
		case <-c.quit:
			return st
		}
	}
}

// release finishes sequencing one frontier entry: it appends the page's
// undiscovered links (discovered at virtual time done) and only then
// advances nextSeq, in ONE critical section. Workers exit when nothing
// is claimable and nothing is unsequenced; if nextSeq moved before the
// links landed, every worker could leave in that window and the new
// links would sit in a frontier nobody fetches.
func (c *crawl) release(links []string, done time.Duration) {
	c.mu.Lock()
	for _, l := range links {
		if c.visited[l] {
			continue
		}
		if c.opts.MaxPages > 0 && len(c.frontier) >= c.opts.MaxPages {
			break
		}
		c.visited[l] = true
		c.frontier = append(c.frontier, l)
		c.disc = append(c.disc, done)
	}
	c.nextSeq++
	c.cond.Broadcast() // frontier grew or nextSeq moved: wake idle workers
	c.mu.Unlock()
}

// batchCost is one driven round's phase costs.
type batchCost struct {
	size           int
	commit, reveal time.Duration
}

// index is the consumer: it drains the queue, flushes BatchSize batches
// through the sink strictly in order, and derives the crawl's virtual
// queue/round schedule. Runs on the caller's goroutine.
func (c *crawl) index() (Stats, error) {
	var st Stats
	var done []time.Duration // virtual fetch completion per published page
	var batches []batchCost
	var batch []core.BatchPage
	flush := func() error {
		rr, err := c.sink.IndexBatch(batch)
		if err != nil {
			return err
		}
		st.Published += len(batch)
		st.Batches++
		st.RoundErrors += len(rr.Errors)
		b := batchCost{
			size:   len(batch),
			commit: rr.StoreCost.Seq(rr.CommitWave).Latency,
			reveal: rr.MaterializeWave.Par(rr.AnnounceWave).Latency,
		}
		batches = append(batches, b)
		st.CommitBusy += b.commit
		st.RevealBusy += b.reveal
		batch = batch[:0]
		if c.opts.RankEvery > 0 && st.Batches%c.opts.RankEvery == 0 {
			if rd, ok := c.sink.(RankDriver); ok {
				parts := c.opts.RankPartitions
				if parts <= 0 {
					parts = 1
				}
				rd.RankEpoch(parts)
				st.RankEpochs++
			}
		}
		return nil
	}
	var sinkErr error
	for it := range c.ch {
		if sinkErr != nil {
			continue // drain so the sequencer never blocks forever
		}
		done = append(done, it.done)
		batch = append(batch, it.page)
		if len(batch) >= c.opts.BatchSize {
			if err := flush(); err != nil {
				sinkErr = err
				c.stop(err)
			}
		}
	}
	if sinkErr == nil && c.stopCause() == nil && len(batch) > 0 {
		if err := flush(); err != nil {
			sinkErr = err
			c.stop(err)
		}
	}
	done = done[:st.Published] // drop pages never flushed (cancel/error)

	sched := computeSchedule(done, batches, c.opts.QueueDepth, false)
	st.QueueWait = sched.queueWait
	st.StallWait = sched.stallWait
	st.QueueDepthMax = sched.depthMax
	st.Makespan = sched.makespan
	st.SerialMakespan = computeSchedule(done, batches, c.opts.QueueDepth, true).makespan
	return st, sinkErr
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
