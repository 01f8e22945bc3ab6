package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contracts"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/store"
)

// Frontend is QueenBee's query side: "the HTML+Javascript frontend ...
// responsible for composing the search results by intersecting the
// matched inverted lists, ranking the results, and displaying relevant
// ads." It is a stateless client of the DHT and the chain: it owns a DWeb
// peer for reads and caches immutable segments by content address.
//
// Queries (Search, ExecuteCtx) are safe for concurrent use, and same-seed
// results are byte-identical whether queries run sequentially or raced
// across goroutines (see docs/serving.md). Both caches are byte-budgeted
// LRUs so a long-lived serving frontend stays bounded under publish churn.
type Frontend struct {
	cluster *Cluster
	peer    *store.Peer

	// loadMu serializes the frontend's pointer walks and chain loads
	// (fetchLeg); warm legs never take it.
	loadMu sync.Mutex

	// mu guards the caches and ptrHolder, never across an RPC, so
	// CacheStatsSnapshot does not wait behind a cold load.
	mu         sync.Mutex
	segCache   *lruCache[string, *index.Segment] // digest → segment (immutable)
	chainCache *lruCache[int, chainEntry]        // shard → merged view of its segment chain

	// ptrHolder remembers, per shard, the replica that last served a
	// pointer the chain vouched for and what the last verified read cost
	// (see readPointer); at most NumShards entries. ptrVerified /
	// ptrWalks count how pointer reads were answered: verified (the own
	// replica, or one RPC), or the quorum walk.
	ptrHolder   map[int]ptrMemo
	ptrVerified atomic.Int64
	ptrWalks    atomic.Int64

	// view is the current docView (see docs); nil until the first query.
	view atomic.Pointer[docView]

	// hedge, when set by a FrontendPool, is the buddy frontend this one
	// routes shard legs to or duplicates them onto (hedged reads, route);
	// hedges counts the duplicates issued, and hedgeBill (also pool-set)
	// books each leg the buddy runs against the buddy's serving load.
	hedge     *Frontend
	hedges    atomic.Int64
	hedgeBill func(time.Duration)
}

// NewFrontend attaches a frontend to one DWeb peer of the cluster.
func NewFrontend(c *Cluster, peer *store.Peer) *Frontend {
	return &Frontend{
		cluster:    c,
		peer:       peer,
		segCache:   newLRUCache[string, *index.Segment](c.cfg.SegCacheBytes),
		chainCache: newLRUCache[int, chainEntry](c.cfg.ChainCacheBytes),
		ptrHolder:  make(map[int]ptrMemo),
	}
}

// ptrMemo is a remembered pointer holder and rtt, the latency of the last
// verified read — a warm leg's whole cost. measured is set by the first
// verified read: one of the frontend's own replica costs nothing, so a
// zero rtt does not mean "unmeasured". The holder is zero while only
// the own replica has answered.
type ptrMemo struct {
	holder   dht.Contact
	rtt      time.Duration
	measured bool
}

// chainEntry caches the merged view of one shard's segment chain, keyed by
// the exact digest chain it was built from. The entry stays valid until
// the shard pointer lists a different chain (a new head digest), so warm
// queries skip both the segment fetches and the re-merge.
type chainEntry struct {
	key string // "," joined segment digests, oldest first
	seg *index.Segment
}

// Result is one ranked search hit.
type Result struct {
	URL     string
	CID     string
	Score   float64
	Rank    float64 // page rank component
	Snippet string  // populated when Query.Snippets is set
}

// Ad is one displayed advertisement.
type Ad struct {
	ID          uint64
	Keywords    []string
	BidPerClick uint64
}

// ScoreStats counts the ranking stage's work: postings decoded or
// probed, skip blocks passed without decoding, and candidate documents
// never fully scored (block-max early termination). The scaling
// benchmark and E18 read these to show sublinear growth.
type ScoreStats = index.WANDStats

// SearchResponse is the composed answer for one query.
type SearchResponse struct {
	Results []Result
	Ads     []Ad
	Cost    netsim.Cost
	// ScoreStats records the ranking stage's work for this query.
	ScoreStats ScoreStats
	// Terms are the positive analyzed terms (excluded terms drive
	// shard loading but not scoring, ads or snippets).
	Terms []string
	// Total counts every candidate that survived boolean evaluation,
	// before ranking truncated to the requested page.
	Total int
	// Explain is the execution trace; nil unless Query.Explain was set.
	Explain *Explain
	// Degraded is set when the answer was composed from a partial shard
	// wave (Config.DegradedReads); nil on a complete answer.
	Degraded *Degraded
}

// Degraded is the typed warning attached to a partial answer: which
// shards stayed unreachable after retries, the fraction of the wave
// that did load, and the error that failed the first missing shard.
type Degraded struct {
	FailedShards []int
	// Completeness is loaded shards / wave shards, in (0, 1).
	Completeness float64
	Cause        string
}

// Search runs the full frontend pipeline for a flat conjunctive (AND)
// query: every analyzed term must match, operators and quotes are plain
// text. ExecuteCtx (plan.go) is the full surface — the query language,
// OR/phrase modes, pagination, snippets, Explain.
func (f *Frontend) Search(query string, k int) (SearchResponse, error) {
	return f.ExecuteCtx(context.Background(), Query{Raw: query, Mode: PlanAll, Limit: k})
}

// scoreAndCompose ranks the candidate documents with BM25 × PageRank,
// keeps the requested page (offset/limit over the deterministic total
// order), and fills in results and ads — steps 3–5 of the frontend
// pipeline, shared by every query mode. The stage sends nothing — the
// collection statistics, ranks and page registry are chain reads and
// ranking is pure CPU — so the budget is checked once, on entry: a spent
// lifecycle returns ErrDeadlineExceeded without composing anything.
//
// One block-max executor ranks every query (docs/serving.md "Early
// termination"): a bare term (non-nil direct cursor) walks its one
// posting list block by block, skipping blocks whose bound cannot beat
// the current top-(offset+limit) threshold; any other plan streams its
// candidates against per-term block cursors. Each term scores a doc with
// the length its own shard's segment records.
func (f *Frontend) scoreAndCompose(bud reqBudget, resp *SearchResponse, terms []string,
	segsByShard map[int]*index.Segment, docs []index.DocID, limit, offset int, direct *index.TermCursor) error {

	if err := bud.check(resp.Cost.Latency); err != nil {
		return err
	}
	stats := f.cluster.QB.IndexStats()
	scorer := index.NewScorer(index.CorpusStats{
		DocCount:  max(stats.Docs, 1),
		AvgDocLen: avgDocLen(stats),
	}, f.cluster.cfg.RankWeight)

	view := f.docs()
	rankOf := func(d index.DocID) float64 { return view.byDoc[d].rank }
	// A posting whose segment records no length for its doc (never one a
	// bee built) scores at the collection's average length.
	avgLen := uint32(avgDocLen(stats))
	noLen := func(index.DocID) uint32 { return avgLen }

	k := offset + limit
	var top []index.ScoredDoc
	if direct != nil {
		top = index.WANDTopKDirect(direct, scorer, noLen, rankOf, view.maxRank, k, &resp.ScoreStats)
	} else {
		cursors := make([]*index.TermCursor, len(terms))
		for i, t := range terms {
			if seg, ok := segsByShard[index.ShardOf(t, f.cluster.cfg.NumShards)]; ok {
				cursors[i] = seg.Cursor(t)
			}
		}
		top = index.WANDTopK(docs, cursors, scorer, noLen, rankOf, view.maxRank, k, &resp.ScoreStats)
	}
	if offset >= len(top) {
		top = nil
	} else {
		top = top[offset:]
	}

	for _, sd := range top {
		doc, ok := view.byDoc[sd.Doc]
		if !ok {
			continue // unindexed or collision; skip
		}
		rec, ok := f.cluster.QB.Page(doc.url)
		if !ok {
			continue
		}
		resp.Results = append(resp.Results, Result{
			URL:   doc.url,
			CID:   rec.CID,
			Score: sd.Score,
			Rank:  doc.rank,
		})
	}

	for _, ad := range f.cluster.QB.AdsForTerms(terms) {
		resp.Ads = append(resp.Ads, Ad{ID: ad.ID, Keywords: ad.Keywords, BidPerClick: ad.BidPerClick})
		if len(resp.Ads) == 3 {
			break
		}
	}
	return nil
}

// fetchSegmentCtx returns the immutable segment for a digest: the LRU
// cache first, else one verified DHT fetch whose decoded segment is
// cached. Only a leg holding loadMu calls it, so a digest fetched before
// is a plain cache hit. A cancelled fetch caches nothing.
func (f *Frontend) fetchSegmentCtx(ctx context.Context, digest string) (*index.Segment, netsim.Cost, error) {
	f.mu.Lock()
	seg, ok := f.segCache.get(digest)
	f.mu.Unlock()
	if ok {
		return seg, netsim.Cost{}, nil
	}
	seg, cost, err := readSegmentCtx(ctx, f.peer.DHT(), digest)
	if err != nil {
		return nil, cost, err
	}
	size := seg.SizeBytes()
	f.mu.Lock()
	f.segCache.add(digest, seg, size)
	f.mu.Unlock()
	return seg, cost, nil
}

// readPointer reads a shard's pointer for a query: the frontend's own
// replica when it holds a current one, else one verified answer from a
// remembered holder when it can get one, the quorum walk otherwise
// (docs/serving.md, "The pointer read").
//
// A lone replica may be stale and cannot say so — hence the walk to the
// K closest nodes. The chain can: writers stamp the index generation
// their pass materialized (ShardPointer.Gen), so a record stamped with
// the current generation is the newest there is. The frontend reads its
// own DHT node's replica first — no RPC — and then asks the replica that
// served the shard's current pointer last time — one FIND_VALUE, no
// lookup. Either answer is accepted iff it decodes and is stamped at or
// past the generation read BEFORE the read (a round finalizing mid-read
// can only make the check stricter). Anything else — no own replica,
// unstamped, older stamp, undecodable, holder down or forgetful — falls
// through to the next source, and a failed RPC's cost is added to the
// walk's. The walk's holder is remembered only when its own answer
// verifies, so a shard the latest pass did not rewrite is read by the
// walk alone, with no wasted RPC.
//
// All paths return the same record, and only costs differ, as long as
// version order and generation order agree — that is, every pointer
// read-modify-write saw the newest record. The verified reads do not
// look at Version: after a lost update (a writer whose quorum read
// missed the newest version stamps the current generation on a lower
// one, and the newer version's replicas come back) the walk serves the
// highest version and a replica of the fork serves the fork, until the
// next pass rewrites the shard (TestQueryPointerForkedRecord).
func (f *Frontend) readPointer(ctx context.Context, shard int) (ShardPointer, netsim.Cost, error) {
	d := f.peer.DHT()
	gen := f.cluster.QB.IndexGen()
	key := pointerKey(shard)
	if val, ok := d.Local(key); ok {
		if ptr, derr := decodeShardPointer(val); derr == nil && ptr.currentAt(gen) {
			f.ptrVerified.Add(1)
			f.mu.Lock()
			m := f.ptrHolder[shard]
			f.ptrHolder[shard] = ptrMemo{holder: m.holder, measured: true}
			f.mu.Unlock()
			return ptr, netsim.Cost{}, nil
		}
	}
	f.mu.Lock()
	m, memo := f.ptrHolder[shard]
	f.mu.Unlock()

	var cost netsim.Cost
	if memo && m.holder != (dht.Contact{}) {
		val, _, c, err := d.GetFromCtx(ctx, m.holder, key)
		cost = c
		if isCancelled(err) {
			return ShardPointer{}, cost, err
		}
		if err == nil {
			if ptr, derr := decodeShardPointer(val); derr == nil && ptr.currentAt(gen) {
				f.ptrVerified.Add(1)
				f.mu.Lock()
				f.ptrHolder[shard] = ptrMemo{holder: m.holder, rtt: c.Latency, measured: true}
				f.mu.Unlock()
				return ptr, cost, nil
			}
		}
	}

	ptr, walked, wcost, err := readShardPointerCtx(ctx, d, shard)
	cost = cost.Seq(wcost)
	f.ptrWalks.Add(1)
	f.mu.Lock()
	switch {
	case err == nil && walked != (dht.Contact{}) && ptr.currentAt(gen):
		f.ptrHolder[shard] = ptrMemo{holder: walked}
	case memo && f.ptrHolder[shard].holder == m.holder:
		delete(f.ptrHolder, shard)
	}
	f.mu.Unlock()
	return ptr, cost, err
}

// shardLeg is one shard of a wave: the view it resolved to, what the leg
// cost, and why it failed.
type shardLeg struct {
	seg  *index.Segment
	cost netsim.Cost
	err  error
}

// fetchLeg resolves one shard: its pointer read, then the merged view of
// the chain it names, from the chain cache or, on a miss, from the
// chain's segments (fetchSegmentCtx), merged here and cached. Single-
// segment chains (the common case after compaction) skip merging. Only
// a shard this cluster never wrote reads as empty (Cluster.readsEmpty); a
// written shard whose pointer no replica returns fails like any
// unreachable shard.
//
// A warm leg — a remembered pointer read and a cached chain — sends at
// most one verified RPC and takes no lock, so warm queries run side by
// side. A leg with nothing remembered (its read walks) or a chain-cache
// miss holds loadMu for the rest of the leg and looks again: a
// concurrent leg that did that work leaves the read remembered and the
// chain cached, so one frontend never fetches or merges the same thing
// twice at once. (A remembered read that fails to verify again falls
// back to the walk without the lock; see readPointer.)
//
// e0 is the query's simulated elapsed time when the wave launched; the
// leg's sequential steps extend it, and the budget is re-checked before
// every step — a spent budget abandons the rest of the chain with the
// partial cost and a typed ErrDeadlineExceeded.
func (f *Frontend) fetchLeg(bud reqBudget, e0 time.Duration, shard int) shardLeg {
	if err := bud.check(e0); err != nil {
		return shardLeg{err: err}
	}
	f.mu.Lock()
	_, memo := f.ptrHolder[shard]
	f.mu.Unlock()
	locked := !memo
	if locked {
		f.loadMu.Lock()
		defer f.loadMu.Unlock()
	}
	ptr, cost, err := f.readPointer(bud.context(), shard)
	if f.cluster.readsEmpty(shard, err) {
		return shardLeg{seg: index.NewSegment(0), cost: cost}
	}
	if err != nil {
		return shardLeg{cost: cost, err: asLifecycle(err)}
	}
	key := strings.Join(ptr.Digests, ",")
	seg, ok := f.cachedChain(shard, key, locked)
	if !ok && !locked {
		f.loadMu.Lock()
		defer f.loadMu.Unlock()
		seg, ok = f.cachedChain(shard, key, true)
	}
	if ok {
		return shardLeg{seg: seg, cost: cost}
	}
	chain := make([]*index.Segment, 0, len(ptr.Digests))
	for _, digest := range ptr.Digests {
		// The chain's fetches are sequential, so the leg-local elapsed
		// time grows step by step — this is the "cancelled between shard
		// fetches" cut point.
		if err := bud.check(e0 + cost.Latency); err != nil {
			return shardLeg{cost: cost, err: err}
		}
		seg, c, err := f.fetchSegmentCtx(bud.context(), digest)
		cost = cost.Seq(c)
		if err != nil {
			return shardLeg{cost: cost, err: asLifecycle(err)}
		}
		chain = append(chain, seg)
	}
	seg = index.Merge(chain)
	size := seg.SizeBytes()
	f.mu.Lock()
	f.chainCache.add(shard, chainEntry{key: key, seg: seg}, size)
	f.mu.Unlock()
	return shardLeg{seg: seg, cost: cost}
}

// cachedChain returns the shard's merged view of the digest chain key.
// On a counted miss (the leg holds loadMu) it drops a view of an older
// chain, which must neither serve nor outlive genuinely warm entries.
func (f *Frontend) cachedChain(shard int, key string, counted bool) (*index.Segment, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ce, ok := f.chainCache.peek(shard); ok && ce.key == key {
		f.chainCache.hits++
		f.chainCache.promote(shard)
		return ce.seg, true
	}
	if counted {
		f.chainCache.misses++
		f.chainCache.drop(shard)
	}
	return nil, false
}

// loadShardsCtx resolves a query's distinct shards as one wave. The legs
// are independent, so the wave is costed as if they were sent at once —
// Par folded in shard order, the slowest shard, not the sum — though they
// run one after another on this goroutine (fetchLeg), which keeps every
// cost and cache state a function of the seed and the query sequence.
// Every leg starts at e0; a spent budget abandons each leg's remaining
// steps, and the wave reports the partial cost of the work that ran and
// ErrDeadlineExceeded.
//
// A failed leg stops no other, so the full wave cost is reported
// alongside the error of the lowest-indexed failing shard — Explain's
// shard-wave accounting stays consistent for failed waves (asserted in
// plan_test.go). The map still carries every shard that DID load, so
// callers with DegradedReads enabled can compose a partial answer instead
// of discarding the wave. Hedged pools route each leg, or hedge one.
func (f *Frontend) loadShardsCtx(bud reqBudget, e0 time.Duration, shards []int) (map[int]*index.Segment, netsim.Cost, error) {
	legs := make([]shardLeg, len(shards))
	devs := f.route(shards)
	for i, shard := range shards {
		if devs == nil {
			legs[i] = f.fetchLeg(bud, e0, shard)
		} else {
			legs[i] = f.routedLeg(bud, e0, shard, devs[i])
		}
	}
	if devs == nil {
		f.hedgeLeg(bud, e0, shards, legs)
	}
	out := make(map[int]*index.Segment, len(shards))
	var cost netsim.Cost
	var firstErr error
	for i, leg := range legs {
		cost = cost.Par(leg.cost)
		if leg.err != nil {
			// A spent lifecycle outranks shard errors: the query was
			// stopped, not the index broken.
			if firstErr == nil || (lifecycleErr(leg.err) && !lifecycleErr(firstErr)) {
				firstErr = fmt.Errorf("shard %d: %w", shards[i], leg.err)
			}
			continue
		}
		out[shards[i]] = leg.seg
	}
	return out, cost, firstErr
}

// route orders, on a hedged pool, the devices each leg may run on: first
// whichever of this frontend and its buddy has the lower rtt for the
// shard (here on a tie), then the other. Results do not depend on it. It
// returns nil if either has not measured a shard: the wave then runs
// here and hedges (hedgeLeg), which measures both.
func (f *Frontend) route(shards []int) [][2]*Frontend {
	if f.hedge == nil {
		return nil
	}
	var devs [][2]*Frontend
	for _, shard := range shards {
		here, hok := f.rtt(shard)
		there, tok := f.hedge.rtt(shard)
		if !hok || !tok {
			return nil
		}
		pair := [2]*Frontend{f, f.hedge}
		if there < here {
			pair = [2]*Frontend{f.hedge, f}
		}
		devs = append(devs, pair)
	}
	return devs
}

// rtt is the shard's last verified pointer read latency here, and
// whether one was measured.
func (f *Frontend) rtt(shard int) (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.ptrHolder[shard]
	return m.rtt, m.measured
}

// routedLeg runs a leg on pair[0], then on pair[1] if that failed (not by
// the lifecycle), costing both in sequence, each billed to its device.
func (f *Frontend) routedLeg(bud reqBudget, e0 time.Duration, shard int, pair [2]*Frontend) (leg shardLeg) {
	for _, d := range pair {
		prev := leg.cost
		leg = d.fetchLeg(bud, e0+prev.Latency, shard)
		if d != f {
			f.hedgeBill(leg.cost.Latency)
		}
		if leg.cost = prev.Seq(leg.cost); leg.err == nil || lifecycleErr(leg.err) {
			break
		}
	}
	return leg
}

// hedgeLeg duplicates one leg of a completed shard wave on the
// buddy frontend (a wave route did not route): the fetch reruns
// against the buddy's own peer, caches and links, the first reply wins
// the latency, and both replies pay their bytes and messages. The
// hedged leg is the lowest-indexed FAILED leg when the wave has one —
// the duplicate is the retry that can actually rescue the wave
// (single-frontend fault tolerance) — and otherwise the slowest
// successful leg, where first-reply-wins shaves the tail. The results
// are byte-identical either way (both frontends read the same
// immutable DHT state), so hedging shifts only costs, never responses.
// Waves stopped by the lifecycle are not hedged: the client is gone.
//
// No leg holds this frontend's loadMu by now: the hedge may take the
// buddy's, and buddies form a ring, so holding both could deadlock.
func (f *Frontend) hedgeLeg(bud reqBudget, e0 time.Duration, shards []int, legs []shardLeg) {
	if f.hedge == nil || len(shards) == 0 {
		return
	}
	slowest, failed := 0, -1
	for i, leg := range legs {
		if lifecycleErr(leg.err) {
			return
		}
		if leg.err != nil && failed < 0 {
			failed = i
		}
		if leg.cost.Latency > legs[slowest].cost.Latency {
			slowest = i
		}
	}
	if failed >= 0 {
		slowest = failed
	} else if legs[slowest].cost.Latency == 0 {
		// Every leg was free: there is no latency to win, so a hedge
		// would only burn duplicate DHT traffic.
		return
	}
	h := f.hedge.fetchLeg(bud, e0, shards[slowest])
	if lifecycleErr(h.err) {
		return // the lifecycle ended mid-hedge; keep the primary leg as-is
	}
	f.hedges.Add(1)
	if f.hedgeBill != nil {
		// The duplicate ran on the buddy's device: its simulated time is
		// the buddy's serving load, not this frontend's.
		f.hedgeBill(h.cost.Latency)
	}
	p := &legs[slowest]
	merged := netsim.Cost{Bytes: p.cost.Bytes + h.cost.Bytes, Msgs: p.cost.Msgs + h.cost.Msgs}
	switch {
	case p.err == nil && h.err == nil:
		merged.Latency = min(p.cost.Latency, h.cost.Latency)
	case p.err != nil && h.err == nil:
		p.seg, p.err = h.seg, nil
		merged.Latency = h.cost.Latency
	case p.err == nil:
		merged.Latency = p.cost.Latency
	default:
		// Both replies failed; the caller observes the later failure.
		merged.Latency = max(p.cost.Latency, h.cost.Latency)
	}
	p.cost = merged
}

// docView is one snapshot of the chain state scoring reads: each
// registered page's URL and finalized rank by DocID, and the largest
// rank in the whole vector (WAND's bound). It is keyed on the rank
// generation and the page count — a rank epoch can finalize without new
// pages, and a registration moves no rank — and never mutated once
// stored, so readers hold it without a lock.
type docView struct {
	rankGen uint64
	pages   int
	byDoc   map[index.DocID]docEntry
	maxRank float64
}

type docEntry struct {
	url  string
	rank float64
}

// docs returns the current docView, rebuilding it when the rank
// generation or the page count moved. Both are read before the state
// they key, so a concurrent registration or finalization can at worst
// store fresh state under a stale key, and the next query rebuilds.
// Pages are visited in sorted order, so of two URLs whose DocIDs collide
// the later one names the document.
func (f *Frontend) docs() *docView {
	qb := f.cluster.QB
	gen, n := qb.RankGen(), qb.PageCount()
	if v := f.view.Load(); v != nil && v.rankGen == gen && v.pages == n {
		return v
	}
	ranks, urls := qb.PageRanks(), qb.Pages()
	byDoc := make(map[index.DocID]docEntry, len(urls))
	for _, url := range urls {
		byDoc[index.DocIDOf(url)] = docEntry{url: url, rank: ranks[url]}
	}
	maxRank := 0.0
	for _, r := range ranks {
		if r > maxRank {
			//detlint:ignore maprange pure max over float64 ranks; the reduced value is iteration-order independent
			maxRank = r
		}
	}
	v := &docView{rankGen: gen, pages: n, byDoc: byDoc, maxRank: maxRank}
	f.view.Store(v)
	return v
}

// CacheStats is a point-in-time snapshot of the frontend's caches.
type CacheStats struct {
	SegBytes, SegBudget     int64
	SegEntries              int
	SegHits, SegMisses      int64
	ChainBytes, ChainBudget int64
	ChainEntries            int
	ChainHits, ChainMisses  int64
	// PtrVerified counts shard-pointer reads answered by a verified
	// record: the frontend's own replica (no RPC) or one RPC to a
	// remembered holder; PtrWalks counts those that ran the K-replica
	// quorum walk (see Frontend.readPointer).
	PtrVerified, PtrWalks int64
}

// Add accumulates another snapshot into c — the aggregation a pool (or
// a serving surface) runs across its frontends' independent caches.
// Budgets sum too: the total memory the tier may hold.
func (c *CacheStats) Add(o CacheStats) {
	c.SegBytes += o.SegBytes
	c.SegBudget += o.SegBudget
	c.SegEntries += o.SegEntries
	c.SegHits += o.SegHits
	c.SegMisses += o.SegMisses
	c.ChainBytes += o.ChainBytes
	c.ChainBudget += o.ChainBudget
	c.ChainEntries += o.ChainEntries
	c.ChainHits += o.ChainHits
	c.ChainMisses += o.ChainMisses
	c.PtrVerified += o.PtrVerified
	c.PtrWalks += o.PtrWalks
}

// WarmSince reports whether every shard load between the earlier
// snapshot prev and c was served warm: no chain-cache miss and no
// pointer quorum walk. Steady-state measurements of the serving tier
// (TestPoolConcurrentThroughput, E14) time only traffic it holds for.
func (c CacheStats) WarmSince(prev CacheStats) bool {
	return c.ChainMisses == prev.ChainMisses && c.PtrWalks == prev.PtrWalks
}

// CacheStatsSnapshot reports cache occupancy and traffic counters —
// queenbeed's /healthz surfaces it, and the churn tests assert the
// byte budgets hold.
func (f *Frontend) CacheStatsSnapshot() CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return CacheStats{
		SegBytes:     f.segCache.bytes(),
		SegBudget:    f.segCache.budget,
		SegEntries:   f.segCache.len(),
		SegHits:      f.segCache.hits,
		SegMisses:    f.segCache.misses,
		ChainBytes:   f.chainCache.bytes(),
		ChainBudget:  f.chainCache.budget,
		ChainEntries: f.chainCache.len(),
		ChainHits:    f.chainCache.hits,
		ChainMisses:  f.chainCache.misses,
		PtrVerified:  f.ptrVerified.Load(),
		PtrWalks:     f.ptrWalks.Load(),
	}
}

// FetchResult downloads and verifies the content of a search result.
func (f *Frontend) FetchResult(r Result) ([]byte, netsim.Cost, error) {
	cid, err := cidFromHex(r.CID)
	if err != nil {
		return nil, netsim.Cost{}, err
	}
	return f.peer.Fetch(cid)
}

func avgDocLen(st contracts.IndexStats) float64 {
	if st.Docs == 0 {
		return 1
	}
	return float64(st.Tokens) / float64(st.Docs)
}

// TopRankedPages lists the highest page-rank URLs from chain state.
func (f *Frontend) TopRankedPages(n int) []string {
	ranks := f.cluster.QB.PageRanks()
	type pr struct {
		url  string
		rank float64
	}
	all := make([]pr, 0, len(ranks))
	for u, r := range ranks {
		all = append(all, pr{u, r})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rank != all[j].rank {
			return all[i].rank > all[j].rank
		}
		return all[i].url < all[j].url
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].url
	}
	return out
}
