package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	queenbee "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/netsim"
	qparse "repro/internal/query"
	"repro/internal/rank"
)

// The traced run replays a fixed slice of the workload's operation
// stream inside this process, against an engine built like queenbeed's,
// and records a span around each call into a layer's public function.
// Spans are recorded from outside the layers (tracing inside the
// program is a later change), so a child that runs hidden inside its
// parent's call is timed standalone on the same inputs, right after the
// parent, and subtracted from the parent's self time.
const (
	traceSearches = 2000 // searches replayed
	traceRounds   = 8    // publish rounds replayed
	traceCrawl    = 1000 // pages crawled
	traceColdRuns = 8    // queries executed on a fresh frontend pool
)

// Engine flags of queenbeed's defaults, which every workload boots with.
const (
	serverPeers = 16
	serverBees  = 4
	serverPool  = 4
)

// span is one timed call. Spans of one operation (a search, a publish
// round, a shard load, the crawl) share Op; Parent is the span a span
// explains (0 for the operation's root).
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Op         int    `json:"op"`
	Kind       string `json:"kind"` // operation kind: search, load, publish, crawl
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Standalone bool   `json:"standalone,omitempty"` // timed outside its parent's interval
	SimUS      int64  `json:"sim_us,omitempty"`     // simulated latency of the call
	Msgs       int    `json:"msgs,omitempty"`       // simulated messages of the call
	Count      int64  `json:"count,omitempty"`      // work counted at the boundary: bytes, pages, postings
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends.
// The crawl's sink records from the pipeline's indexer goroutine, hence
// the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) begin(kind, name string, op, parent int, standalone bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Kind: kind, Name: name, Standalone: standalone})
	id := len(t.spans)
	t.spans[id-1].StartNS = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int, cost netsim.Cost, count int64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS, s.SimUS, s.Msgs, s.Count = now, cost.Latency.Microseconds(), cost.Msgs, count
}

// durations returns the duration of every span of that name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// stageRow is one line of a stage table.
type stageRow struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	Total  float64 `json:"total_ms"`
	Self   float64 `json:"self_ms"` // total minus the time its child spans cover
	Share  float64 `json:"share"`   // self over the enclosing operations' total
	SimMS  float64 `json:"sim_ms"`
	Counts int64   `json:"count"`
}

// stageTable is the per-layer breakdown of one kind of operation.
type stageTable struct {
	Kind          string     `json:"kind"`
	Operations    int        `json:"operations"`
	EnclosingMS   float64    `json:"enclosing_ms"` // summed root spans
	Rows          []stageRow `json:"rows"`
	UnattributedM float64    `json:"unattributed_ms"` // enclosing minus the rows' self times
}

// table aggregates the spans of one operation kind by name. A layer's
// self time is the total of its spans minus the total of their child
// spans, floored at zero (standalone children can out-last the parent
// calls they explain); what the floor hides shows as a negative
// remainder.
func (t *tracer) table(kind string) stageTable {
	rows := make(map[string]*stageRow)
	children := make(map[string]float64) // layer → total of its spans' children
	var names []string
	tab := stageTable{Kind: kind}
	for _, s := range t.spans {
		if s.Kind != kind {
			continue
		}
		ms := float64(s.dur()) / float64(time.Millisecond)
		if s.Parent == 0 {
			tab.Operations++
			tab.EnclosingMS += ms
		} else {
			children[t.spans[s.Parent-1].Name] += ms
		}
		row := rows[s.Name]
		if row == nil {
			row = &stageRow{Name: s.Name}
			rows[s.Name] = row
			names = append(names, s.Name)
		}
		row.Calls++
		row.Total += ms
		row.SimMS += float64(s.SimUS) / 1000
		row.Counts += s.Count
	}
	tab.UnattributedM = tab.EnclosingMS
	for _, name := range names {
		row := rows[name]
		row.Self = max(0, row.Total-children[name])
		if tab.EnclosingMS > 0 {
			row.Share = row.Self / tab.EnclosingMS
		}
		tab.UnattributedM -= row.Self
		tab.Rows = append(tab.Rows, *row)
	}
	sort.SliceStable(tab.Rows, func(i, j int) bool { return tab.Rows[i].Self > tab.Rows[j].Self })
	return tab
}

func (tab stageTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage table: %s, %d operations, %.2f ms enclosing\n", tab.Kind, tab.Operations, tab.EnclosingMS)
	fmt.Fprintf(&b, "  %-22s %8s %12s %12s %7s %12s\n", "layer", "calls", "total_ms", "self_ms", "share", "sim_ms")
	for _, r := range tab.Rows {
		fmt.Fprintf(&b, "  %-22s %8d %12.2f %12.2f %6.1f%% %12.1f\n", r.Name, r.Calls, r.Total, r.Self, 100*r.Share, r.SimMS)
	}
	fmt.Fprintf(&b, "  %-22s %8s %12s %12.2f\n", "unattributed_ms", "", "", tab.UnattributedM)
	return b.String()
}

// newEngine is queenbee.New with queenbeed's default flags, except that
// maintenance is configured off: the traced publish rounds run
// Cluster.RunMaintenance themselves, so that the pass is a span of its
// own.
func newEngine() *queenbee.Engine {
	return queenbee.New(
		queenbee.WithSeed(serverSeed),
		queenbee.WithPeers(serverPeers),
		queenbee.WithBees(serverBees),
		queenbee.WithFrontendPool(serverPool),
		queenbee.WithHedgedReads(true),
		queenbee.WithMaintenance(false),
		queenbee.WithDegradedReads(true),
	)
}

// bootEngine builds and fills an engine the way queenbeed's buildEngine
// does for the same flags.
func bootEngine(ctx context.Context, docs []corpus.Document, crawl bool) (*queenbee.Engine, error) {
	e := newEngine()
	creator := e.NewAccount("creator", 1_000_000)
	pages := make([]queenbee.Page, 0, len(docs))
	seeds := make([]string, 0, len(docs))
	for _, d := range docs {
		pages = append(pages, queenbee.Page{URL: d.URL, Text: d.Text, Links: d.Links})
		seeds = append(seeds, d.URL)
	}
	if crawl {
		if _, err := e.Crawl(ctx, seeds, queenbee.CrawlOptions{Owner: creator, Pages: pages}); err != nil {
			return nil, fmt.Errorf("crawl corpus: %w", err)
		}
	} else if rr, err := e.PublishBatch(creator, pages); err != nil {
		return nil, fmt.Errorf("publish corpus: %w", err)
	} else if len(rr.Errors) > 0 {
		return nil, fmt.Errorf("publish corpus: round errors: %v", rr.Errors[0])
	}
	e.RunUntilIdle()
	e.ComputeRanks(4)
	return e, nil
}

// traced runs the in-process replay, fills in the per-layer metrics and
// writes the spans and stage tables to <out>/trace-<workload>.json.
func (r *runner) traced(out string) error {
	t := &tracer{t0: time.Now()}
	e, err := bootEngine(r.ctx, r.corp.Docs, r.w.crawl)
	if err != nil {
		return err
	}
	if err := r.traceSearch(t, e); err != nil {
		return err
	}
	r.traceRank(e)
	if err := r.tracePublish(t, e.Cluster); err != nil {
		return err
	}
	if err := r.traceCrawl(t); err != nil {
		return err
	}

	tables := make([]stageTable, 0, 4)
	for _, kind := range []string{"search", "load", "publish", "crawl"} {
		tab := t.table(kind)
		tables = append(tables, tab)
		fmt.Print(tab)
		if kind != "load" {
			r.set("trace."+kind+".unattributed_ms", tab.UnattributedM)
		}
	}
	if http, ok := r.res.metrics["search_ms_p50"]; ok && r.w.home == homeSearch {
		r.set("queenbeed.http_ms", http-r.res.metrics["facade.query_ms"])
	}
	r.set("fail_ratio", float64(r.res.failed)/float64(max(r.res.attempted, 1)))

	data, err := json.Marshal(map[string]any{
		"workload": r.w.Name, "seed": r.seed, "tables": tables, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+r.w.Name+".json"), data, 0o644)
}

// shardLoader fetches, decodes and merges shard chains through the
// layers' public functions, the way a frontend does inside loadShard.
type shardLoader struct {
	t      *tracer
	node   *dht.Node
	merged map[int]*index.Segment
}

// load builds the merged view of a shard as one operation: pointer
// read, then fetch and decode of every segment of the chain (walking the
// given terms, since v3 postings decode lazily), then the merge.
func (l *shardLoader) load(ctx context.Context, shard int, terms []string) error {
	op := shard + 1
	root := l.t.begin("load", "core.load_shard", op, 0, false)
	id := l.t.begin("load", "dht.get", op, root, false)
	val, _, cost, err := l.node.GetCtx(ctx, dht.KeyOfString(index.ShardPointerKey(shard)))
	l.t.end(id, cost, int64(len(val)))
	total := cost
	var segs []*index.Segment
	if err == nil {
		var ptr core.ShardPointer
		if err = json.Unmarshal(val, &ptr); err != nil {
			return fmt.Errorf("shard pointer %d: %w", shard, err)
		}
		for _, digest := range ptr.Digests {
			id = l.t.begin("load", "store.fetch", op, root, false)
			raw, cost, err := l.node.GetImmutableCtx(ctx, dht.KeyOfString(index.SegmentKey(digest)))
			l.t.end(id, cost, int64(len(raw)))
			total = total.Seq(cost)
			if err != nil {
				return fmt.Errorf("segment %s of shard %d: %w", digest[:8], shard, err)
			}
			id = l.t.begin("load", "index.decode", op, root, false)
			seg, err := index.DecodeSegment(raw)
			var postings int64
			if err == nil {
				for _, term := range terms {
					postings += int64(len(seg.Postings(term)))
				}
			}
			l.t.end(id, netsim.Cost{}, postings)
			if err != nil {
				return fmt.Errorf("segment %s of shard %d: %w", digest[:8], shard, err)
			}
			segs = append(segs, seg)
		}
	} else if err != dht.ErrNotFound {
		return fmt.Errorf("shard pointer %d: %w", shard, err)
	}
	id = l.t.begin("load", "index.merge", op, root, false)
	seg := index.Merge(segs)
	l.t.end(id, netsim.Cost{}, int64(len(segs)))
	l.t.end(root, total, 0)
	l.merged[shard] = seg
	return nil
}

// scoring is what WAND needs beside the cursors, rebuilt from the
// engine's public state.
type scoring struct {
	scorer  *index.Scorer
	rankOf  func(index.DocID) float64
	maxRank float64
}

func newScoring(e *queenbee.Engine, docs []corpus.Document) scoring {
	ranks := make(map[index.DocID]float64, len(docs))
	var tokens int
	var maxRank float64
	for _, d := range docs {
		rk := e.PageRank(d.URL)
		ranks[index.DocIDOf(d.URL)] = rk
		maxRank = max(maxRank, rk)
		tokens += len(index.Analyze(d.Text))
	}
	cfg := e.Cluster.Config()
	return scoring{
		scorer:  index.NewScorer(index.CorpusStats{DocCount: len(docs), AvgDocLen: float64(tokens) / float64(len(docs))}, cfg.RankWeight),
		rankOf:  func(d index.DocID) float64 { return ranks[d] },
		maxRank: maxRank,
	}
}

// analyzed maps a query's words to index terms.
func analyzed(words []string) []string {
	out := make([]string, len(words))
	for i, w := range words {
		if terms := index.AnalyzeQuery(w); len(terms) > 0 {
			out[i] = terms[0]
		}
	}
	return out
}

// candidates evaluates a generated query's boolean shape over posting
// lists, as the frontend's plan evaluator does.
func candidates(q query, pls []index.PostingList) []index.DocID {
	lists := make([][]index.DocID, len(pls))
	for i, pl := range pls {
		lists[i] = pl.Docs()
	}
	switch q.Kind {
	case kindOr:
		return index.Union(lists)
	case kindPhrase:
		var out []index.DocID
		for _, d := range index.IntersectGallop(lists) {
			if index.PhraseMatch(d, pls) {
				out = append(out, d)
			}
		}
		return out
	case kindExclude:
		return index.Difference(index.IntersectGallop(lists[:2]), lists[2])
	default:
		return index.IntersectGallop(lists)
	}
}

// traceSearch replays the workload's search stream.
func (r *runner) traceSearch(t *tracer, e *queenbee.Engine) error {
	ctx := r.ctx
	cluster := e.Cluster
	cfg := cluster.Config()

	// The HTTP answers and the in-process answers to the same requests
	// must name the same pages in the same order.
	mismatched := 0
	var first error
	for i, want := range r.res.parity {
		resp, err := e.QueryCtx(ctx, r.pool[i].Text).Page(1, 10).Run()
		if err == nil {
			urls := make([]string, len(resp.Results))
			for j, res := range resp.Results {
				urls[j] = res.URL
			}
			if got := strings.Join(urls, "\n"); got != want {
				err = fmt.Errorf("query %q: HTTP and in-process results differ:\n%s\n--\n%s", r.pool[i].Text, want, got)
			}
		}
		if err != nil {
			mismatched++
			if first == nil {
				first = err
			}
		}
	}
	r.count(len(r.res.parity), mismatched, first)

	order := requestOrder(r.seed, "measure:0", len(r.pool), r.w.requests, r.w.zipf)
	order = order[:min(len(order), traceSearches)]
	pool := core.NewFrontendPool(cluster, serverPool, cfg.HedgedReads, 0)
	coreQuery := func(q query) core.Query { return core.Query{Raw: q.Text, Mode: core.PlanParsed, Limit: 10} }
	replay := func(span bool) (time.Duration, error) {
		start := time.Now()
		for i, qi := range order {
			id := 0
			if span {
				id = t.begin("search", "facade.query", i+1, 0, false)
			}
			resp, err := e.QueryCtx(ctx, r.pool[qi].Text).Page(1, 10).Run()
			if err != nil {
				return 0, fmt.Errorf("replay %q: %w", r.pool[qi].Text, err)
			}
			if span {
				t.end(id, resp.Cost, resp.ScoreStats.PostingsScanned)
			}
		}
		return time.Since(start), nil
	}
	// The parity queries above touched every shard through the engine's
	// pool; warm the standalone one, then time the same replay without and
	// with spans.
	for _, qi := range order {
		if _, err := pool.ExecuteCtx(ctx, coreQuery(r.pool[qi])); err != nil {
			return fmt.Errorf("warm %q: %w", r.pool[qi].Text, err)
		}
	}
	plain, err := replay(false)
	if err != nil {
		return err
	}
	roots := len(t.spans)
	spanned, err := replay(true)
	if err != nil {
		return err
	}
	r.set("trace.overhead_ratio", spanned.Seconds()/plain.Seconds()-1)

	// Children, standalone on the same inputs. Each kind of child runs
	// as its own back-to-back pass, like the replay above, so that every
	// pass sees the processor caches the same way.
	execSpan := make([]int, len(order))
	var scanned, skipped float64
	for i, qi := range order {
		q := r.pool[qi]
		execSpan[i] = t.begin("search", "core.execute", i+1, roots+i+1, true)
		resp, err := pool.ExecuteCtx(ctx, coreQuery(q))
		t.end(execSpan[i], resp.Cost, int64(resp.Total))
		if err != nil {
			return fmt.Errorf("execute %q: %w", q.Text, err)
		}
		scanned += float64(resp.ScoreStats.PostingsScanned)
		skipped += float64(resp.ScoreStats.BlocksSkipped)
	}
	for i, qi := range order {
		q := r.pool[qi]
		id := t.begin("search", "query.parse", i+1, execSpan[i], true)
		_, err := qparse.Parse(q.Text)
		t.end(id, netsim.Cost{}, int64(len(q.Text)))
		if err != nil {
			return fmt.Errorf("parse %q: %w", q.Text, err)
		}
	}
	// A frontend reads the pointer of every distinct shard of the query,
	// and a hedged pool reads the slowest one again on the buddy frontend.
	node, buddy := cluster.Peers[0].DHT(), cluster.Peers[1%len(cluster.Peers)].DHT()
	var gets, getMsgs float64
	pointerRead := func(i int, from *dht.Node, shard int) (time.Duration, error) {
		id := t.begin("search", "dht.get", i+1, execSpan[i], true)
		val, _, cost, err := from.GetCtx(ctx, dht.KeyOfString(index.ShardPointerKey(shard)))
		t.end(id, cost, int64(len(val)))
		if err != nil {
			return 0, fmt.Errorf("shard pointer %d: %w", shard, err)
		}
		gets++
		getMsgs += float64(cost.Msgs)
		return cost.Latency, nil
	}
	for i, qi := range order {
		seen := make(map[int]bool)
		slowest, slowestSim := -1, time.Duration(0)
		for _, term := range analyzed(r.pool[qi].Terms) {
			shard := index.ShardOf(term, cfg.NumShards)
			if seen[shard] {
				continue
			}
			seen[shard] = true
			sim, err := pointerRead(i, node, shard)
			if err != nil {
				return err
			}
			if slowest < 0 || sim > slowestSim {
				slowest, slowestSim = shard, sim
			}
		}
		if pool.Hedged() {
			if _, err := pointerRead(i, buddy, slowest); err != nil {
				return err
			}
		}
	}

	// WAND runs on shard views loaded here through the public fetch,
	// decode and merge functions; each load is an operation of its own.
	loader := &shardLoader{t: t, node: node, merged: make(map[int]*index.Segment)}
	termsOf := make(map[int][]string) // shard → replayed terms
	for _, qi := range order {
		for _, term := range analyzed(r.pool[qi].Terms) {
			shard := index.ShardOf(term, cfg.NumShards)
			termsOf[shard] = append(termsOf[shard], term)
		}
	}
	for shard := 0; shard < cfg.NumShards; shard++ {
		if err := loader.load(ctx, shard, termsOf[shard]); err != nil {
			return err
		}
	}
	sc := newScoring(e, r.corp.Docs)
	for i, qi := range order {
		q := r.pool[qi]
		terms := analyzed(q.Terms)
		segs := make([]*index.Segment, len(terms))
		pls := make([]index.PostingList, len(terms))
		for j, term := range terms {
			segs[j] = loader.merged[index.ShardOf(term, cfg.NumShards)]
			pls[j] = segs[j].Postings(term)
		}
		docLen := func(d index.DocID) uint32 {
			for _, seg := range segs {
				if l, ok := seg.DocLens[d]; ok {
					return l
				}
			}
			return 0
		}
		var cands []index.DocID
		if q.Kind != kindTerm {
			cands = candidates(q, pls)
		}
		var ws index.WANDStats
		id := t.begin("search", "index.wand", i+1, execSpan[i], true)
		if q.Kind == kindTerm {
			index.WANDTopKDirect(segs[0].Cursor(terms[0]), sc.scorer, docLen, sc.rankOf, sc.maxRank, 10, &ws)
		} else {
			positive := len(terms)
			if q.Kind == kindExclude {
				positive = 2
			}
			cursors := make([]*index.TermCursor, positive)
			for j := range cursors {
				cursors[j] = segs[j].Cursor(terms[j])
			}
			index.WANDTopK(cands, cursors, sc.scorer, docLen, sc.rankOf, sc.maxRank, 10, &ws)
		}
		t.end(id, netsim.Cost{}, ws.PostingsScanned)
	}

	// Cold: the first queries again, each on a pool with empty caches.
	var cold []float64
	for _, qi := range order[:min(len(order), traceColdRuns)] {
		fresh := core.NewFrontendPool(cluster, serverPool, cfg.HedgedReads, 0)
		start := time.Now()
		if _, err := fresh.ExecuteCtx(ctx, coreQuery(r.pool[qi])); err != nil {
			return fmt.Errorf("cold %q: %w", r.pool[qi].Text, err)
		}
		cold = append(cold, float64(time.Since(start))/float64(time.Millisecond))
	}

	n := float64(len(order))
	r.set("facade.query_ms", median(t.durations("facade.query")))
	r.set("query.parse_us", 1000*median(t.durations("query.parse")))
	r.set("core.execute_warm_ms", median(t.durations("core.execute")))
	r.set("core.execute_cold_ms", median(cold))
	r.set("dht.get_ms", median(t.durations("dht.get")))
	r.set("dht.get_msgs", getMsgs/gets)
	r.set("dht.gets_per_query", gets/n)
	r.set("store.fetch_ms", median(t.durations("store.fetch")))
	r.set("index.decode_ms", median(t.durations("index.decode")))
	r.set("index.merge_ms", median(t.durations("index.merge")))
	r.set("index.wand_us", 1000*median(t.durations("index.wand")))
	r.set("index.postings_scanned", scanned/n)
	r.set("index.blocks_skipped", skipped/n)
	var fetched, fetches float64
	for _, s := range t.spans {
		if s.Name == "store.fetch" {
			fetched += float64(s.Count)
			fetches++
		}
	}
	if fetches > 0 {
		r.set("store.fetch_bytes", fetched/fetches)
	}
	return nil
}

// traceRank times the rank layer's public functions at the workload's
// graph size.
func (r *runner) traceRank(e *queenbee.Engine) {
	start := time.Now()
	g := rank.NewGraph(e.Cluster.QB.LinkGraph())
	r.set("rank.graph_ms", float64(time.Since(start))/float64(time.Millisecond))
	start = time.Now()
	full := rank.Compute(g, rank.DefaultOptions())
	r.set("rank.compute_ms", float64(time.Since(start))/float64(time.Millisecond))
	// A delta epoch after one publish batch: the newest pages are dirty.
	dirty := make([]int, 0, r.w.batchPages)
	for i := max(0, g.Size()-r.w.batchPages); i < g.Size(); i++ {
		dirty = append(dirty, i)
	}
	start = time.Now()
	rank.ComputeDelta(g, full.Ranks, dirty, rank.DefaultOptions())
	r.set("rank.delta_ms", float64(time.Since(start))/float64(time.Millisecond))
}

// tracePublish replays publish rounds through Cluster.IndexBatch's own
// steps, each a span: content add and contract transaction, seal, the
// protocol round, and (where the workload's server runs it) the
// maintenance pass.
func (r *runner) tracePublish(t *tracer, c *core.Cluster) error {
	owner := c.NewAccount("qbbench", 1_000_000)
	c.Seal()
	maintenance := !r.w.crawl
	var segW, ptrW, compactions, compacted, analyzeUS []float64
	var buildMS, encodeMS []float64
	rounds := r.batches[:min(len(r.batches), traceRounds)]
	for i, batch := range rounds {
		op := i + 1
		pages := make([]core.BatchPage, len(batch))
		docs := make([]index.BatchDoc, len(batch))
		for j, p := range batch {
			pages[j] = core.BatchPage{URL: p.URL, Text: p.Text, Links: p.Links}
		}
		root := t.begin("publish", "publish", op, 0, false)
		peer := c.RandomPeer()
		id := t.begin("publish", "core.publish", op, root, false)
		br, err := c.PublishBatch(owner, peer, pages)
		t.end(id, br.StoreCost, int64(len(pages)))
		if err != nil {
			return fmt.Errorf("traced publish %d: %w", i, err)
		}
		publishSpan := id
		id = t.begin("publish", "chain.seal", op, root, false)
		c.Seal()
		t.end(id, netsim.Cost{}, 1)
		if rc := c.Chain.Receipt(br.Tx.Hash()); rc == nil || !rc.OK {
			return fmt.Errorf("traced publish %d: registration rejected", i)
		}
		id = t.begin("publish", "core.round", op, root, false)
		rr := c.ProcessRoundReceipt()
		t.end(id, rr.Wave(), int64(rr.Materialized))
		if len(rr.Errors) > 0 {
			return fmt.Errorf("traced publish %d: round errors: %v", i, rr.Errors[0])
		}
		maintSpan := 0
		if maintenance {
			maintSpan = t.begin("publish", "core.maintenance", op, root, false)
			pass := c.RunMaintenance()
			t.end(maintSpan, pass.Cost, int64(pass.ProbedKeys))
		}
		t.end(root, rr.Wave().Seq(br.StoreCost), int64(len(pages)))
		segW = append(segW, float64(rr.SegmentWrites))
		ptrW = append(ptrW, float64(rr.PointerWrites))
		compactions = append(compactions, float64(rr.Compactions))
		compacted = append(compacted, float64(rr.CompactedBytes))

		// Children of the spans above, standalone on the same inputs:
		// re-adding a page and re-announcing providers repeat the same
		// work and leave the stores as they were.
		for _, p := range pages {
			id = t.begin("publish", "store.add", op, publishSpan, true)
			_, cost, err := peer.Add([]byte(p.Text))
			t.end(id, cost, int64(len(p.Text)))
			if err != nil {
				return fmt.Errorf("traced add %s: %w", p.URL, err)
			}
		}
		if maintenance {
			id = t.begin("publish", "store.reprovide", op, maintSpan, true)
			var announced int
			var total netsim.Cost
			for _, p := range c.Peers {
				n, cost := p.Reprovide()
				announced += n
				total = total.Seq(cost)
			}
			for _, b := range c.Bees {
				n, cost := b.Peer.Reprovide()
				announced += n
				total = total.Seq(cost)
			}
			t.end(id, total, int64(announced))
		}
		// What every bee of the quorum does with the batch inside the
		// round, once, on this goroutine.
		start := time.Now()
		for j, p := range batch {
			index.Analyze(p.Text)
			docs[j] = index.BatchDoc{Doc: index.DocIDOf(p.URL), Text: p.Text}
		}
		analyzeUS = append(analyzeUS, float64(time.Since(start))/float64(time.Microsecond)/float64(len(batch)))
		start = time.Now()
		seg := index.BuildBatch(uint64(i+1), docs)
		buildMS = append(buildMS, float64(time.Since(start))/float64(time.Millisecond))
		start = time.Now()
		seg.Encode()
		encodeMS = append(encodeMS, float64(time.Since(start))/float64(time.Millisecond))
	}
	r.set("core.publish_ms", median(t.durations("core.publish")))
	r.set("store.add_ms", median(t.durations("store.add")))
	r.set("chain.seal_ms", median(t.durations("chain.seal")))
	r.set("core.round_ms", median(t.durations("core.round")))
	r.set("core.maintenance_ms", median(t.durations("core.maintenance")))
	r.set("store.reprovide_ms", median(t.durations("store.reprovide")))
	r.set("core.round.segment_writes", mean(segW))
	r.set("core.round.pointer_writes", mean(ptrW))
	r.set("core.round.compactions", mean(compactions))
	r.set("core.round.compacted_bytes", mean(compacted))
	r.set("index.analyze_us_per_page", median(analyzeUS))
	r.set("index.build_ms", median(buildMS))
	r.set("index.encode_ms", median(encodeMS))
	return nil
}

// spanSink records a span around every batch the crawl pipeline hands
// to the cluster.
type spanSink struct {
	t     *tracer
	root  int
	inner ingest.Sink
}

func (s spanSink) IndexBatch(pages []core.BatchPage) (core.RoundReceipt, error) {
	id := s.t.begin("crawl", "core.index_batch", 1, s.root, false)
	rr, err := s.inner.IndexBatch(pages)
	s.t.end(id, rr.Wave(), int64(len(pages)))
	return rr, err
}

// traceCrawl crawls the first pages of the corpus into a fresh engine,
// all URLs seeded as queenbeed -crawl does, then finishes the boot.
func (r *runner) traceCrawl(t *tracer) error {
	docs := r.corp.Docs[:min(len(r.corp.Docs), traceCrawl)]
	e := newEngine()
	c := e.Cluster
	owner := c.NewAccount("creator", 1_000_000)
	c.Seal()
	pages := make([]ingest.Page, len(docs))
	seeds := make([]string, len(docs))
	for i, d := range docs {
		pages[i] = ingest.Page{URL: d.URL, Text: d.Text, Links: d.Links}
		seeds[i] = d.URL
	}
	root := t.begin("crawl", "ingest.crawl", 1, 0, false)
	st, err := ingest.Crawl(r.ctx, ingest.MapSource(pages), spanSink{t, root, ingest.NewClusterSink(c, owner)}, seeds,
		ingest.Options{Seed: c.Config().Seed})
	t.end(root, netsim.Cost{Latency: st.Makespan}, int64(st.Published))
	if err != nil {
		return fmt.Errorf("traced crawl: %w", err)
	}
	id := t.begin("crawl", "ingest.signature", 1, root, true)
	for _, p := range pages {
		index.SignatureOf(p.Text)
	}
	t.end(id, netsim.Cost{}, int64(len(pages)))
	id = t.begin("crawl", "core.idle_rounds", 2, 0, false)
	e.RunUntilIdle()
	t.end(id, netsim.Cost{}, 0)
	id = t.begin("crawl", "rank.epoch", 3, 0, false)
	e.ComputeRanks(4)
	t.end(id, netsim.Cost{}, 0)

	crawlMS := t.durations("ingest.crawl")[0]
	r.set("ingest.crawl_ms_per_page", crawlMS/float64(max(st.Published, 1)))
	r.set("ingest.signature_us", 1000*t.durations("ingest.signature")[0]/float64(len(pages)))
	return nil
}
