// Command queenbeed serves a QueenBee deployment over HTTP: it boots the
// simulated swarm, publishes a demo corpus through the smart contract,
// lets the worker bees index and rank it, and then answers queries from
// many concurrent clients against one shared engine — the serving shape
// the paper's "stateless frontend" implies.
//
// Endpoints (all JSON):
//
//	GET  /search?q=<query>[&page=N][&size=K][&mode=parsed|all|any|phrase][&snippets=1][&deadline_ms=D]
//	GET  /explain?q=<query>           — the compiled plan with per-node counts and costs
//	GET  /healthz                     — liveness, deployment summary, cache occupancy
//	GET  /readyz                      — readiness: per-shard index reachability (503 while degraded)
//	GET  /stats                       — serving tier: per-frontend load, caches, deadline misses, repair and ingest counters
//	POST /publish                     — ingest a page batch: {"pages":[{"url","text","links"}]}
//
// The default mode speaks the full structured query language (uppercase
// OR/AND, '-' exclusions, "quoted phrases", site: URL-prefix filters,
// parentheses — docs/query-language.md). Per-request limits, constants
// here (a 1024-byte query, 100 results a page, 64 pages and 1 MiB a
// publish, a 5 s handler timeout), keep one abusive client from
// monopolizing the shared engine; see docs/serving.md.
//
// Bodies are the engine's own types wherever one fits — results, ads,
// the degraded warning, readiness, repair counters, rank freshness —
// and every simulated cost is netsim.Cost's one JSON form. Only blocks
// that compute a value (µs figures, ratios, a round's wave, error
// strings) have a type of their own here.
//
// Queries are served by a pool of per-peer frontends behind a
// deterministic least-loaded balancer (-pool, -hedged); each request's
// context is threaded into the simulated waves, so a disconnected
// client abandons its remaining shard fetches. deadline_ms bounds the
// query's *simulated* latency: a query whose simulated cost would
// overrun it is stopped mid-wave and answered 504 with the partial
// execution trace.
//
// Publishes run under the server's write lock — the engine's mutation
// contract is a single deterministic driver — while queries share a
// read lock and stay concurrent among themselves. One POST /publish
// ingests the whole batch as one protocol round (one commit-reveal
// cycle, one shard-pointer write per touched shard — docs/indexing.md)
// and reports the round receipt: wave cost, write counters and any
// write-path errors.
//
// Usage:
//
//	queenbeed -addr :8080 -peers 24 -bees 6 -docs 60
//	queenbeed -crawl -docs 200        # boot corpus via the streaming crawler
//	curl 'localhost:8080/search?q=decentralized+search&size=5'
//	curl -X POST localhost:8080/publish -d '{"pages":[{"url":"dweb://new","text":"fresh words"}]}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	queenbee "repro"
	"repro/internal/corpus"
)

// The per-request guardrails of the shared engine (docs/serving.md).
const (
	maxQueryBytes  = 1024            // longest q= accepted
	maxPageSize    = 100             // largest size= accepted
	maxBatchPages  = 64              // largest page batch POST /publish accepts
	maxBodyBytes   = 1 << 20         // largest request body POST /publish accepts
	requestTimeout = 5 * time.Second // per-request handler timeout
)

// server answers HTTP requests against one shared engine. Queries are
// concurrency-safe and share the read lock; POST /publish mutates the
// deployment and takes the write lock, honoring the engine's
// single-driver mutation contract while queries stay concurrent among
// themselves.
type server struct {
	engine    *queenbee.Engine
	publisher *queenbee.Account // owns API-published pages
	start     time.Time

	mu sync.RWMutex // read: queries; write: publish rounds
}

// newHandler wires the API routes, each wrapped in the request timeout.
// The Content-Type is pre-set on the real response writer so the 503
// body http.TimeoutHandler emits on timeout is also served as JSON (it
// would otherwise be content-sniffed to text/plain on this all-JSON
// API); handlers overwrite the header with the same value on the normal
// path.
func newHandler(e *queenbee.Engine, publisher *queenbee.Account) http.Handler {
	s := &server{engine: e, publisher: publisher, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", s.handleSearch)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /publish", s.handlePublish)
	inner := http.TimeoutHandler(mux, requestTimeout, `{"error":"request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		inner.ServeHTTP(w, r)
	})
}

// searchJSON is the GET /search body. Degraded flags a partial answer
// (the daemon always serves one when some shards are unreachable): the
// wave legs that failed and how complete the answer is.
type searchJSON struct {
	Query    string             `json:"query"`
	Page     int                `json:"page"`
	Size     int                `json:"size"`
	Total    int                `json:"total"`
	Results  []queenbee.Result  `json:"results"`
	Ads      []queenbee.Ad      `json:"ads"`
	Cost     queenbee.Cost      `json:"cost"`
	Degraded *queenbee.Degraded `json:"degraded,omitempty"`
}

// orEmpty keeps an empty list encoding as [] rather than null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// buildQuery validates the request parameters and assembles the builder,
// or replies with a 400 and returns nil. The request's context rides
// into the builder: a client that disconnects abandons its query's
// remaining simulated waves, and deadline_ms bounds the query's
// simulated latency (504 with partial trace on overrun).
func (s *server) buildQuery(w http.ResponseWriter, r *http.Request) (*queenbee.QueryBuilder, int, int) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, "missing q parameter")
		return nil, 0, 0
	}
	if len(q) > maxQueryBytes {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("query exceeds %d bytes", maxQueryBytes))
		return nil, 0, 0
	}
	page, ok := intParam(w, r, "page", 1, 1, 1<<20)
	if !ok {
		return nil, 0, 0
	}
	size, ok := intParam(w, r, "size", 10, 1, maxPageSize)
	if !ok {
		return nil, 0, 0
	}
	deadlineMS, ok := intParam(w, r, "deadline_ms", 0, 1, 1<<20)
	if !ok {
		return nil, 0, 0
	}
	b := s.engine.QueryCtx(r.Context(), q)
	if deadlineMS > 0 {
		b = b.Deadline(time.Duration(deadlineMS) * time.Millisecond)
	}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "parsed":
	case "all":
		b = b.All()
	case "any":
		b = b.Any()
	case "phrase":
		b = b.Phrase()
	default:
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q", mode))
		return nil, 0, 0
	}
	b = b.Page(page, size)
	if r.URL.Query().Get("snippets") == "1" {
		b = b.WithSnippets()
	}
	return b, page, size
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	b, page, size := s.buildQuery(w, r)
	if b == nil {
		return
	}
	s.mu.RLock()
	resp, err := b.Run()
	s.mu.RUnlock()
	if err != nil {
		writeQueryErr(w, resp, err)
		return
	}
	writeJSON(w, http.StatusOK, searchJSON{
		Query:    r.URL.Query().Get("q"),
		Page:     page,
		Size:     size,
		Total:    resp.Total,
		Results:  orEmpty(resp.Results),
		Ads:      orEmpty(resp.Ads),
		Cost:     resp.Cost,
		Degraded: resp.Degraded,
	})
}

type explainJSON struct {
	Query      string                   `json:"query"`
	Mode       string                   `json:"mode"`
	Terms      []string                 `json:"terms"`
	Shards     []int                    `json:"shards"`
	Plan       *queenbee.ExplainNode    `json:"plan"`
	Candidates int                      `json:"candidates"`
	Returned   int                      `json:"returned"`
	Costs      map[string]queenbee.Cost `json:"costs"`
	Rendered   string                   `json:"rendered"`
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	b, _, _ := s.buildQuery(w, r)
	if b == nil {
		return
	}
	s.mu.RLock()
	resp, err := b.Explain().Run()
	s.mu.RUnlock()
	if err != nil {
		writeQueryErr(w, resp, err)
		return
	}
	ex := resp.Explain
	writeJSON(w, http.StatusOK, explainJSON{
		Query:      ex.Query,
		Mode:       ex.Mode,
		Terms:      ex.Terms,
		Shards:     ex.Shards,
		Plan:       ex.Plan,
		Candidates: ex.Candidates,
		Returned:   ex.Returned,
		Costs: map[string]queenbee.Cost{
			"load":    ex.LoadCost,
			"snippet": ex.SnippetCost,
			"total":   ex.TotalCost,
		},
		Rendered: ex.String(),
	})
}

type healthJSON struct {
	Status  string              `json:"status"`
	Uptime  string              `json:"uptime"`
	Pages   int                 `json:"pages"`
	Height  uint64              `json:"height"`
	Workers int                 `json:"workers"`
	Cache   queenbee.CacheStats `json:"cache"`
}

// handleHealthz takes no server lock, so the liveness probe answers while
// a publish round runs: each value is read through a getter that holds
// its own lock. (Engine.Stats would also read the honey supply, which
// only the round driver may touch.)
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c := s.engine.Cluster
	writeJSON(w, http.StatusOK, healthJSON{
		Status:  "ok",
		Uptime:  time.Since(s.start).Round(time.Millisecond).String(),
		Pages:   c.QB.PageCount(),
		Height:  c.Chain.Height(),
		Workers: len(c.QB.ActiveWorkers()),
		Cache:   s.engine.CacheStats(),
	})
}

// readyJSON is the GET /readyz body: serving readiness as per-shard
// index reachability, plus the self-healing counters so an operator
// watching a degraded deployment can see repair progressing.
type readyJSON struct {
	queenbee.Readiness
	Repair queenbee.RepairStats `json:"repair"`
}

// handleReadyz answers readiness, distinct from /healthz liveness: the
// process can be alive while churn has made index shards unreachable.
// 200 when every shard's pointer is reachable, 503 while degraded —
// load balancers and orchestration probes key off exactly this split.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	ready := s.engine.Ready()
	repair := s.engine.RepairStats()
	s.mu.RUnlock()
	status := http.StatusOK
	if !ready.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, readyJSON{Readiness: ready, Repair: repair})
}

// frontendJSON is one pool frontend's load in GET /stats.
type frontendJSON struct {
	Served    int64               `json:"served"`
	InFlight  int                 `json:"in_flight"`
	BusySimUS int64               `json:"busy_sim_us"`
	Cache     queenbee.CacheStats `json:"cache"`
}

// ingestJSON renders the streaming pipeline's accumulated counters
// (every Engine.Crawl on this deployment, e.g. a -crawl boot) for
// GET /stats.
type ingestJSON struct {
	Fetched       int     `json:"fetched"`
	FetchFailed   int     `json:"fetch_failed"`
	Dangling      int     `json:"dangling"`
	Deduped       int     `json:"deduped"`
	Published     int     `json:"published"`
	Batches       int     `json:"batches"`
	RoundErrors   int     `json:"round_errors"`
	QueueDepthMax int     `json:"queue_depth_max"`
	QueueWaitUS   int64   `json:"queue_wait_us"`
	StallWaitUS   int64   `json:"stall_wait_us"`
	MakespanUS    int64   `json:"makespan_us"`
	PagesPerSec   float64 `json:"sim_pages_per_sec"`
	Speedup       float64 `json:"pipeline_speedup"`
}

func ingestOf(is queenbee.IngestStats) ingestJSON {
	return ingestJSON{
		Fetched:       is.Fetched,
		FetchFailed:   is.FetchFailed,
		Dangling:      is.Dangling,
		Deduped:       is.Deduped,
		Published:     is.Published,
		Batches:       is.Batches,
		RoundErrors:   is.RoundErrors,
		QueueDepthMax: is.QueueDepthMax,
		QueueWaitUS:   is.QueueWait.Microseconds(),
		StallWaitUS:   is.StallWait.Microseconds(),
		MakespanUS:    is.Makespan.Microseconds(),
		PagesPerSec:   is.PagesPerSec(),
		Speedup:       is.Speedup(),
	}
}

// writeJSONBlock renders the write path's cumulative ledger: rounds,
// put counters, per-tier segment histogram, and the ingested/compacted
// byte split whose ratio is the write amplification.
type writeJSONBlock struct {
	Rounds          int     `json:"rounds"`
	SegmentWrites   int     `json:"segment_writes"`
	PointerWrites   int     `json:"pointer_writes"`
	Compactions     int     `json:"compactions"`
	IngestedBytes   int64   `json:"ingested_bytes"`
	CompactedBytes  int64   `json:"compacted_bytes"`
	Amplification   float64 `json:"write_amplification"`
	SegmentsPerTier []int   `json:"segments_per_tier"`
}

func writeOf(ws queenbee.WriteStats) writeJSONBlock {
	return writeJSONBlock{
		Rounds:          ws.Rounds,
		SegmentWrites:   ws.SegmentWrites,
		PointerWrites:   ws.PointerWrites,
		Compactions:     ws.Compactions,
		IngestedBytes:   ws.IngestedBytes,
		CompactedBytes:  ws.CompactedBytes,
		Amplification:   ws.Amplification(),
		SegmentsPerTier: ws.SegmentsPerTier,
	}
}

// statsJSON is the GET /stats body: the serving tier's per-frontend
// load counters, aggregate cache occupancy, deadline misses, the
// self-healing loops' repair counters, the ingest pipeline's
// accumulated crawl counters, the write path's compaction ledger and
// rank freshness: the latest finalized epoch, the last exact (full)
// epoch, the delta epochs since, and the pages dirtied but not yet
// covered by any epoch.
type statsJSON struct {
	PoolSize       int                  `json:"pool_size"`
	Hedged         bool                 `json:"hedged"`
	DeadlineMisses int64                `json:"deadline_misses"`
	Frontends      []frontendJSON       `json:"frontends"`
	Cache          queenbee.CacheStats  `json:"cache"` // aggregated across the pool
	Repair         queenbee.RepairStats `json:"repair"`
	Ingest         ingestJSON           `json:"ingest"`
	Write          writeJSONBlock       `json:"write"`
	Rank           queenbee.RankStatus  `json:"rank"`
}

// handleStats takes no server lock: every block below is guarded by its
// own mutex precisely so it can be read while a publish round runs.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	ps := s.engine.PoolStats()
	out := statsJSON{
		PoolSize:       ps.Size,
		Hedged:         ps.Hedged,
		DeadlineMisses: ps.DeadlineMisses,
		Frontends:      make([]frontendJSON, 0, len(ps.Frontends)),
		Repair:         s.engine.RepairStats(),
		Ingest:         ingestOf(s.engine.IngestStats()),
		// Both served from in-memory accumulators — no DHT reads, so
		// polling /stats never consumes simulation RNG draws.
		Write: writeOf(s.engine.WriteStats()),
		Rank:  s.engine.RankStatus(),
	}
	for _, fl := range ps.Frontends {
		out.Frontends = append(out.Frontends, frontendJSON{
			Served:    fl.Served,
			InFlight:  fl.InFlight,
			BusySimUS: fl.BusySim.Microseconds(),
			Cache:     fl.Cache,
		})
		// The aggregate sums the per-frontend snapshots already in hand,
		// so it always agrees with the rows in this same response.
		out.Cache.Add(fl.Cache)
	}
	writeJSON(w, http.StatusOK, out)
}

// publishJSON is the POST /publish request body.
type publishJSON struct {
	Pages []pageJSON `json:"pages"`
}

type pageJSON struct {
	URL   string   `json:"url"`
	Text  string   `json:"text"`
	Links []string `json:"links,omitempty"`
}

// roundJSON renders a round receipt for API consumers. WaveCost is the
// round's whole simulated makespan and already contains StoreCost — as a
// branch running beside the round, or ahead of it when a bee's fetch
// missed the provider the publish named — which is listed beside it as a
// breakdown, not to be added to it. Speedup is the serial/wave latency
// ratio the concurrent round engine achieved.
type roundJSON struct {
	Materialized  int           `json:"materialized"`
	StoreCost     queenbee.Cost `json:"store_cost"`
	WaveCost      queenbee.Cost `json:"wave_cost"`
	SerialCost    queenbee.Cost `json:"serial_cost"`
	Speedup       float64       `json:"speedup"`
	SegmentWrites int           `json:"segment_writes"`
	PointerWrites int           `json:"pointer_writes"`
	Compactions   int           `json:"compactions"`
	// Partial flags a round that succeeded overall but recorded per-bee
	// write-path errors — some contributions may be missing from the
	// materialized segments. Clients that treat 200 as "fully indexed"
	// must check this; Errors carries the summary.
	Partial bool     `json:"partial"`
	Errors  []string `json:"errors,omitempty"`
}

func roundOf(rr queenbee.RoundReceipt) roundJSON {
	out := roundJSON{
		Materialized:  rr.Materialized,
		StoreCost:     rr.StoreCost,
		WaveCost:      rr.Wave(),
		SerialCost:    rr.Serial(),
		SegmentWrites: rr.SegmentWrites,
		PointerWrites: rr.PointerWrites,
		Compactions:   rr.Compactions,
		Partial:       len(rr.Errors) > 0,
	}
	if wave := rr.Wave().Latency; wave > 0 {
		out.Speedup = float64(rr.Serial().Latency) / float64(wave)
	}
	for _, re := range rr.Errors {
		out.Errors = append(out.Errors, re.Error())
	}
	return out
}

// publishRespJSON is the POST /publish response.
type publishRespJSON struct {
	Pages      int       `json:"pages"`
	TotalPages int       `json:"total_pages"` // deployment-wide, after the round
	Round      roundJSON `json:"round"`
}

// handlePublish ingests a page batch as one protocol round, under the
// server's write lock (mutations are a single deterministic driver).
func (s *server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req publishJSON
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Pages) == 0 {
		writeErr(w, http.StatusBadRequest, "no pages in batch")
		return
	}
	if len(req.Pages) > maxBatchPages {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("batch exceeds %d pages", maxBatchPages))
		return
	}
	pages := make([]queenbee.Page, 0, len(req.Pages))
	for _, p := range req.Pages {
		if p.URL == "" || p.Text == "" {
			writeErr(w, http.StatusBadRequest, "every page needs url and text")
			return
		}
		pages = append(pages, queenbee.Page{URL: p.URL, Text: p.Text, Links: p.Links})
	}

	s.mu.Lock()
	rr, err := s.engine.PublishBatch(s.publisher, pages)
	var total int
	if err == nil {
		total = s.engine.Stats().Pages
	}
	s.mu.Unlock()
	if err != nil {
		// A rejected batch (foreign ownership, duplicate URL — refused
		// atomically) is the client's fault; anything else is a
		// server-side fault (e.g. the content store).
		if errors.Is(err, queenbee.ErrBatchRejected) {
			writeErr(w, http.StatusBadRequest, err.Error())
		} else {
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, publishRespJSON{
		Pages:      len(pages),
		TotalPages: total,
		Round:      roundOf(rr),
	})
}

// intParam parses an optional integer query parameter within [min, max].
func intParam(w http.ResponseWriter, r *http.Request, name string, def, min, max int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < min || v > max {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("%s must be an integer in [%d, %d]", name, min, max))
		return 0, false
	}
	return v, true
}

// deadlineJSON is the 504 body for a query stopped by its lifecycle:
// the typed error plus the partial execution trace — what ran before
// the deadline and what it cost.
type deadlineJSON struct {
	Error string             `json:"error"`
	Cost  queenbee.Cost      `json:"cost"`
	Trace *deadlineTraceJSON `json:"trace,omitempty"`
}

type deadlineTraceJSON struct {
	Partial bool                     `json:"partial"`
	Terms   []string                 `json:"terms"`
	Shards  []int                    `json:"shards"`
	Costs   map[string]queenbee.Cost `json:"costs"`
}

// writeQueryErr maps query-surface errors onto HTTP statuses: malformed
// queries are the client's fault, an unreachable index shard is a
// (retryable) server-side condition, and a missed deadline is a 504
// carrying the partial trace from resp (non-nil exactly on that path).
func writeQueryErr(w http.ResponseWriter, resp *queenbee.Response, err error) {
	switch {
	case errors.Is(err, queenbee.ErrEmptyQuery), errors.Is(err, queenbee.ErrBadSyntax):
		writeErr(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, queenbee.ErrDeadlineExceeded):
		out := deadlineJSON{Error: err.Error()}
		if resp != nil {
			out.Cost = resp.Cost
			if ex := resp.Explain; ex != nil {
				out.Trace = &deadlineTraceJSON{
					Partial: ex.Partial,
					Terms:   ex.Terms,
					Shards:  ex.Shards,
					Costs: map[string]queenbee.Cost{
						"load":  ex.LoadCost,
						"total": ex.TotalCost,
					},
				}
			}
		}
		writeJSON(w, http.StatusGatewayTimeout, out)
	case errors.Is(err, queenbee.ErrShardUnavailable):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// buildEngine boots the deployment and indexes the demo corpus — the
// write side runs to completion before the first query is served. The
// returned account owns the demo corpus and every page later ingested
// through POST /publish. A query that loses some shards is answered
// with what the rest hold and a degraded warning. With crawl set, the
// corpus arrives through the streaming crawler (fetch → extract → dedup
// → one publish round per batch, costed as a pipeline in simulated time;
// GET /stats shows the counters) instead of one monolithic batch.
func buildEngine(seed uint64, peers, bees, docs, pool int, hedged, maintenance, crawl bool) (*queenbee.Engine, *queenbee.Account) {
	engine := queenbee.New(
		queenbee.WithSeed(seed),
		queenbee.WithPeers(peers),
		queenbee.WithBees(bees),
		queenbee.WithFrontendPool(pool),
		queenbee.WithHedgedReads(hedged),
		queenbee.WithMaintenance(maintenance),
		queenbee.WithDegradedReads(true),
	)
	creator := engine.NewAccount("creator", 1_000_000)
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = docs
	corp := corpus.Generate(ccfg)
	pages := make([]queenbee.Page, 0, len(corp.Docs))
	seeds := make([]string, 0, len(corp.Docs))
	for _, d := range corp.Docs {
		pages = append(pages, queenbee.Page{URL: d.URL, Text: d.Text, Links: d.Links})
		seeds = append(seeds, d.URL)
	}
	if crawl {
		st, err := engine.Crawl(context.Background(), seeds, queenbee.CrawlOptions{
			Owner: creator,
			Pages: pages,
		})
		if err != nil {
			log.Fatalf("crawl corpus: %v", err)
		}
		log.Printf("crawled corpus: %d fetched, %d deduped, %d published in %d rounds (%.0f sim pages/s, %.2f× pipelining)",
			st.Fetched, st.Deduped, st.Published, st.Batches, st.PagesPerSec(), st.Speedup())
	} else if rr, err := engine.PublishBatch(creator, pages); err != nil {
		// The demo corpus ships as one batch: one commit-reveal round,
		// one shard-pointer write per touched shard.
		log.Fatalf("publish corpus: %v", err)
	} else if len(rr.Errors) > 0 {
		log.Fatalf("publish corpus: round errors: %v", rr.Errors[0])
	}
	engine.RunUntilIdle()
	engine.ComputeRanks(4)
	return engine, creator
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	peers := flag.Int("peers", 16, "DWeb devices in the swarm")
	bees := flag.Int("bees", 4, "worker bees")
	docs := flag.Int("docs", 40, "synthetic pages to publish before serving")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	pool := flag.Int("pool", 4, "frontends in the serving tier")
	hedged := flag.Bool("hedged", true, "pair each frontend with a second one: each shard fetch goes to the one with the faster measured pointer read, a failed fetch is retried on the other")
	maintenance := flag.Bool("maintenance", true, "run a self-healing pass (republish/re-seed/reprovide) after every protocol round")
	crawl := flag.Bool("crawl", false, "ingest the boot corpus through the streaming crawler (one publish round per batch) instead of one monolithic batch")
	flag.Parse()

	log.Printf("booting QueenBee swarm: %d peers, %d bees, %d docs (seed %d)…", *peers, *bees, *docs, *seed)
	engine, publisher := buildEngine(*seed, *peers, *bees, *docs, *pool, *hedged, *maintenance, *crawl)
	sum := engine.Stats()
	log.Printf("index ready: %d pages, chain height %d, %d active bees, %d frontends (hedged=%v)",
		sum.Pages, sum.Height, sum.Workers, engine.PoolStats().Size, engine.PoolStats().Hedged)

	log.Printf("queenbeed listening on %s", *addr)
	if err := http.ListenAndServe(*addr, newHandler(engine, publisher)); err != nil {
		log.Fatal(err)
	}
}
