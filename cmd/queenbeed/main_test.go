package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	queenbee "repro"
	"repro/internal/corpus"
)

// testHandler builds one small indexed deployment shared by every
// subtest (engine boot dominates test time). testTerm is a vocabulary
// word guaranteed to appear in the corpus (the most frequent one).
var (
	handlerOnce sync.Once
	testH       http.Handler
	testTerm    string
)

func serverHandler(t *testing.T) http.Handler {
	t.Helper()
	handlerOnce.Do(func() {
		engine, publisher := buildEngine(1, 10, 3, 12, 2, true, true, false)
		testH = newHandler(engine, publisher)
		ccfg := corpus.DefaultConfig()
		ccfg.Seed = 1
		ccfg.NumDocs = 12
		testTerm = corpus.Generate(ccfg).Vocab(0)
	})
	return testH
}

// latencyField matches a served Cost's latency string. Cost has no
// UnmarshalJSON, so decode drops the string first: a decoded Cost keeps
// its bytes and messages and reads a zero latency.
var latencyField = regexp.MustCompile(`"latency":"[^"]*",`)

// decode reads a served JSON body into the type it was served from.
func decode(body []byte, into any) error {
	return json.Unmarshal(latencyField.ReplaceAll(body, nil), into)
}

func getJSON(t *testing.T, h http.Handler, url string, wantStatus int, into any) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d (%s), want %d", url, rec.Code, rec.Body.String(), wantStatus)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s content-type = %q", url, ct)
	}
	if into != nil {
		if err := decode(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
}

func TestSearchEndpoint(t *testing.T) {
	h := serverHandler(t)
	var out searchJSON
	getJSON(t, h, "/search?q="+testTerm+"&size=5", http.StatusOK, &out)
	if out.Total == 0 || len(out.Results) == 0 {
		t.Fatalf("search returned nothing: %+v", out)
	}
	if len(out.Results) > 5 {
		t.Fatalf("size=5 returned %d results", len(out.Results))
	}
	if out.Cost.Msgs == 0 {
		t.Fatalf("search response carries no simulated cost: %+v", out.Cost)
	}
	for _, r := range out.Results {
		if !strings.HasPrefix(r.URL, "dweb://") {
			t.Fatalf("result URL %q not a dweb address", r.URL)
		}
	}
}

func TestSearchPaginationTiles(t *testing.T) {
	h := serverHandler(t)
	var full searchJSON
	getJSON(t, h, "/search?q="+testTerm+"&size=10", http.StatusOK, &full)
	if len(full.Results) < 4 {
		t.Skipf("corpus too small for pagination test: %d hits", len(full.Results))
	}
	var p1, p2 searchJSON
	getJSON(t, h, "/search?q="+testTerm+"&page=1&size=2", http.StatusOK, &p1)
	getJSON(t, h, "/search?q="+testTerm+"&page=2&size=2", http.StatusOK, &p2)
	got := append(append([]queenbee.Result{}, p1.Results...), p2.Results...)
	for i, r := range got {
		if r.URL != full.Results[i].URL {
			t.Fatalf("page tiling broke at %d: %q vs %q", i, r.URL, full.Results[i].URL)
		}
	}
}

func TestSearchModesAndSnippets(t *testing.T) {
	h := serverHandler(t)
	for _, mode := range []string{"parsed", "all", "any", "phrase"} {
		getJSON(t, h, "/search?q="+testTerm+"&mode="+mode, http.StatusOK, &searchJSON{})
	}
	var snip searchJSON
	getJSON(t, h, "/search?q="+testTerm+"&size=2&snippets=1", http.StatusOK, &snip)
	if len(snip.Results) > 0 && snip.Results[0].Snippet == "" {
		t.Fatalf("snippets=1 returned no snippet: %+v", snip.Results[0])
	}
}

func TestSearchRejectsBadRequests(t *testing.T) {
	h := serverHandler(t)
	cases := []string{
		"/search",                                // missing q
		"/search?q=" + strings.Repeat("x", 2000), // too long
		"/search?q=" + testTerm + "&size=0",      // below min
		"/search?q=" + testTerm + "&size=1000",   // above maxPageSize
		"/search?q=" + testTerm + "&page=zero",   // not an integer
		"/search?q=" + testTerm + "&mode=fuzzy",  // unknown mode
		"/search?q=-only",                        // exclusion-only: bad syntax
		"/search?q=the+of",                       // stopwords only: empty query
	}
	for _, url := range cases {
		var e map[string]string
		getJSON(t, h, url, http.StatusBadRequest, &e)
		if e["error"] == "" {
			t.Fatalf("%s: no error message in body", url)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	h := serverHandler(t)
	var out explainJSON
	getJSON(t, h, "/explain?q="+testTerm, http.StatusOK, &out)
	if out.Plan == nil || len(out.Shards) == 0 {
		t.Fatalf("explain missing plan/shards: %+v", out)
	}
	if out.Costs["total"].Msgs == 0 {
		t.Fatalf("explain missing total cost: %+v", out.Costs)
	}
	if !strings.Contains(out.Rendered, "plan") {
		t.Fatalf("rendered plan = %q", out.Rendered)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	h := serverHandler(t)
	var out healthJSON
	getJSON(t, h, "/healthz", http.StatusOK, &out)
	if out.Status != "ok" || out.Pages == 0 || out.Workers == 0 {
		t.Fatalf("healthz = %+v", out)
	}
	if out.Cache.SegBudget == 0 || out.Cache.ChainBudget == 0 {
		t.Fatalf("healthz missing cache budgets: %+v", out.Cache)
	}
}

// TestReadyzEndpoint: a healthy deployment answers 200 with every shard
// reachable, and the repair counters ride along (maintenance runs after
// publish rounds, so the loops have already probed).
func TestReadyzEndpoint(t *testing.T) {
	h := serverHandler(t)
	var out readyJSON
	getJSON(t, h, "/readyz", http.StatusOK, &out)
	if !out.Ready || out.ShardsOK != out.ShardsTotal || len(out.Failed) != 0 {
		t.Fatalf("readyz = %+v, want fully ready", out)
	}
	if out.ShardsTotal == 0 {
		t.Fatalf("readyz reports no shards: %+v", out)
	}
	if out.Repair.Runs == 0 || out.Repair.ProbedKeys == 0 {
		t.Fatalf("maintenance never ran on the serving engine: %+v", out.Repair)
	}
	if out.Repair.SegmentsLost != 0 {
		t.Fatalf("healthy deployment lost segments: %+v", out.Repair)
	}
}

// TestStatsEndpoint: the serving tier's counters are visible — pool
// shape, per-frontend load, aggregate caches — and queries actually
// move them.
func TestStatsEndpoint(t *testing.T) {
	h := serverHandler(t)
	getJSON(t, h, "/search?q="+testTerm, http.StatusOK, nil)
	var out statsJSON
	getJSON(t, h, "/stats", http.StatusOK, &out)
	if out.PoolSize != 2 || !out.Hedged {
		t.Fatalf("pool shape = %+v, want size 2 hedged", out)
	}
	if len(out.Frontends) != out.PoolSize {
		t.Fatalf("stats list %d frontends for a pool of %d", len(out.Frontends), out.PoolSize)
	}
	var served, busy int64
	for _, f := range out.Frontends {
		served += f.Served
		busy += f.BusySimUS
	}
	if served == 0 || busy == 0 {
		t.Fatalf("no load booked against any frontend: %+v", out.Frontends)
	}
	if out.Cache.SegBudget == 0 {
		t.Fatalf("aggregate cache stats missing budgets: %+v", out.Cache)
	}

	// Write-path block: the boot's publish rounds left a ledger — rounds
	// driven, segments put, bytes ingested — and the per-tier histogram
	// accounts for every live segment chain.
	if out.Write.Rounds == 0 || out.Write.SegmentWrites == 0 || out.Write.PointerWrites == 0 {
		t.Fatalf("write block empty after indexing boot: %+v", out.Write)
	}
	if out.Write.IngestedBytes == 0 {
		t.Fatalf("no ingested bytes accounted: %+v", out.Write)
	}
	if out.Write.Amplification < 1 {
		t.Fatalf("write amplification %v < 1 with ingested bytes booked", out.Write.Amplification)
	}
	tiered := 0
	for _, n := range out.Write.SegmentsPerTier {
		tiered += n
	}
	if tiered == 0 {
		t.Fatalf("per-tier histogram accounts no segments: %+v", out.Write)
	}

	// Rank block: the boot ran one full epoch, so freshness reports it
	// as both the latest and the last exact epoch, with no delta drift.
	if out.Rank.Epoch == 0 || out.Rank.LastFull != out.Rank.Epoch {
		t.Fatalf("rank block = %+v, want a finalized full epoch", out.Rank)
	}
	if out.Rank.DeltasSinceFull != 0 {
		t.Fatalf("full-epoch boot reports delta drift: %+v", out.Rank)
	}
}

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

// TestStatsAnswersUnderWriteLock: GET /stats and the liveness probe
// GET /healthz read only internally synchronized state, so they must
// answer while a publish round holds the server's write lock instead of
// queueing behind it until the request timeout fires — and the timeout
// wrapper must leave no handler goroutine behind. The second half is the
// claim that licenses the missing lock, checked by the race job: polling
// both while real publish rounds (maintenance on) run is race-free.
func TestStatsAnswersUnderWriteLock(t *testing.T) {
	checkGoroutineLeak(t)
	engine, publisher := buildEngine(1, 6, 2, 4, 2, true, true, false)
	s := &server{engine: engine, publisher: publisher}
	unlocked := map[string]http.HandlerFunc{"/stats": s.handleStats, "/healthz": s.handleHealthz}

	s.mu.Lock() // a publish round in progress
	bodies := make(map[string][]byte)
	for path, handle := range unlocked {
		rec := httptest.NewRecorder()
		http.TimeoutHandler(handle, 200*time.Millisecond, "timed out").ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			s.mu.Unlock()
			t.Fatalf("GET %s under the write lock = %d (%s), want 200", path, rec.Code, rec.Body.String())
		}
		bodies[path] = rec.Body.Bytes()
	}
	s.mu.Unlock()

	var out statsJSON
	if err := decode(bodies["/stats"], &out); err != nil || out.Write.Rounds == 0 {
		t.Fatalf("stats body %q: %v", bodies["/stats"], err)
	}
	var health healthJSON
	if err := json.Unmarshal(bodies["/healthz"], &health); err != nil || health.Pages == 0 || health.Height == 0 || health.Workers != 2 {
		t.Fatalf("healthz body %q: %v", bodies["/healthz"], err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 2; r++ {
			body := fmt.Sprintf(`{"pages":[{"url":"dweb://stats-race/%d","text":"stats polled during publish round %d"}]}`, r, r)
			rec := httptest.NewRecorder()
			s.handlePublish(rec, httptest.NewRequest("POST", "/publish", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("POST /publish = %d (%s)", rec.Code, rec.Body.String())
			}
		}
	}()
	for publishing := true; publishing; {
		select {
		case <-done:
			publishing = false
		default:
		}
		for path, handle := range unlocked {
			rec := httptest.NewRecorder()
			handle(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s during a publish = %d (%s)", path, rec.Code, rec.Body.String())
			}
		}
	}
}

// TestSearchDeadline: a simulated deadline shorter than one shard RTT
// answers 504 with the typed error and the partial execution trace;
// the same query without a deadline still succeeds afterwards (the
// abandoned wave left the caches consistent).
func TestSearchDeadline(t *testing.T) {
	h := serverHandler(t)
	var out deadlineJSON
	getJSON(t, h, "/search?q="+testTerm+"&deadline_ms=1", http.StatusGatewayTimeout, &out)
	if !strings.Contains(out.Error, "deadline") {
		t.Fatalf("504 error = %q, want the typed deadline error", out.Error)
	}
	if out.Trace == nil || !out.Trace.Partial || len(out.Trace.Shards) == 0 {
		t.Fatalf("504 missing partial trace: %+v", out.Trace)
	}
	if out.Cost.Msgs == 0 {
		t.Fatalf("a deadline-stopped wave still costs the work it ran: %+v", out.Cost)
	}
	getJSON(t, h, "/search?q="+testTerm, http.StatusOK, nil)

	var st statsJSON
	getJSON(t, h, "/stats", http.StatusOK, &st)
	if st.DeadlineMisses == 0 {
		t.Fatal("deadline miss not counted in /stats")
	}
}

// postJSON sends a JSON body and decodes the JSON response.
func postJSON(t *testing.T, h http.Handler, url, body string, wantStatus int, into any) {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST %s = %d (%s), want %d", url, rec.Code, rec.Body.String(), wantStatus)
	}
	if into != nil {
		if err := decode(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
}

// TestPublishEndpoint ingests a batch through POST /publish and then
// finds the new pages through GET /search — the full write-then-read
// serving loop over one shared engine.
func TestPublishEndpoint(t *testing.T) {
	h := serverHandler(t)
	body := `{"pages":[
		{"url":"dweb://api/one","text":"glowworm beacon essay about luminous navigation"},
		{"url":"dweb://api/two","text":"glowworm colonies and their luminous caves"}
	]}`
	var out publishRespJSON
	postJSON(t, h, "/publish", body, http.StatusOK, &out)
	if out.Pages != 2 {
		t.Fatalf("pages = %d, want 2", out.Pages)
	}
	if out.Round.Materialized == 0 {
		t.Fatalf("round materialized nothing: %+v", out.Round)
	}
	// One batch task → one segment; pointer writes bounded by shards.
	if out.Round.SegmentWrites != 1 {
		t.Fatalf("batch write counters: %+v", out.Round)
	}
	if len(out.Round.Errors) > 0 {
		t.Fatalf("round errors: %v", out.Round.Errors)
	}
	if out.Round.Partial {
		t.Fatalf("clean round flagged partial: %+v", out.Round)
	}
	if out.Round.WaveCost.Msgs == 0 {
		t.Fatalf("round carries no simulated cost: %+v", out.Round)
	}

	var got searchJSON
	getJSON(t, h, "/search?q=glowworm+luminous", http.StatusOK, &got)
	if got.Total != 2 {
		t.Fatalf("published pages not searchable: %+v", got)
	}
}

func TestPublishRejectsBadBatches(t *testing.T) {
	h := serverHandler(t)
	cases := []string{
		`not json`,
		`{"pages":[]}`,
		`{"pages":[{"url":"","text":"x"}]}`,
		`{"pages":[{"url":"dweb://no-text","text":""}]}`,
		`{"pages":[{"url":"dweb://dup","text":"a"},{"url":"dweb://dup","text":"b"}]}`,
	}
	for _, body := range cases {
		var e map[string]any
		postJSON(t, h, "/publish", body, http.StatusBadRequest, &e)
		if e["error"] == "" {
			t.Fatalf("%s: no error message in body", body)
		}
	}
	// Oversized batches are refused before touching the engine.
	var pages []string
	for i := 0; i < maxBatchPages+1; i++ {
		pages = append(pages, `{"url":"dweb://big/`+strconv.Itoa(i)+`","text":"w"}`)
	}
	postJSON(t, h, "/publish", `{"pages":[`+strings.Join(pages, ",")+`]}`,
		http.StatusBadRequest, nil)
}

// TestPublishPartialFailureSurfaced is the POST /publish audit: a round
// receipt carrying per-bee errors must not render like a full success.
// The JSON body flags it "partial": true with the error summary — the
// exact shape a client retrying failed contributions keys off.
func TestPublishPartialFailureSurfaced(t *testing.T) {
	rr := queenbee.RoundReceipt{
		Materialized: 3,
		Errors: []queenbee.RoundError{
			{Bee: "bee-2", Shard: 5, Stage: "segment-write", Err: errors.New("replica down")},
			{Bee: "bee-4", Shard: -1, Task: "idx:9", Stage: "build", Err: errors.New("decode failed")},
		},
	}
	out := roundOf(rr)
	if !out.Partial {
		t.Fatalf("receipt with %d errors not flagged partial: %+v", len(rr.Errors), out)
	}
	if len(out.Errors) != 2 || !strings.Contains(out.Errors[0], "bee-2") {
		t.Fatalf("error summary lost: %+v", out.Errors)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"partial":true`) {
		t.Fatalf("partial flag missing from wire JSON: %s", enc)
	}

	// And a clean receipt stays non-partial with errors omitted.
	clean, err := json.Marshal(roundOf(queenbee.RoundReceipt{Materialized: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(clean), `"partial":false`) || strings.Contains(string(clean), `"errors"`) {
		t.Fatalf("clean receipt JSON: %s", clean)
	}
}

// TestCrawlBootServesIngestStats boots a deployment in -crawl mode (the
// corpus arrives through the streaming pipeline) and checks the crawl's
// counters surface in GET /stats and the index still serves.
func TestCrawlBootServesIngestStats(t *testing.T) {
	engine, publisher := buildEngine(2, 10, 3, 24, 2, true, true, true)
	h := newHandler(engine, publisher)

	var st statsJSON
	getJSON(t, h, "/stats", http.StatusOK, &st)
	in := st.Ingest
	if in.Fetched != 24 || in.Published == 0 || in.Batches == 0 {
		t.Fatalf("ingest counters = %+v, want the crawled corpus accounted", in)
	}
	if in.Published+in.Deduped != in.Fetched {
		t.Fatalf("fetched pages neither published nor deduped: %+v", in)
	}
	if in.RoundErrors != 0 {
		t.Fatalf("crawl rounds recorded errors: %+v", in)
	}
	if in.MakespanUS <= 0 || in.PagesPerSec <= 0 || in.Speedup < 1 {
		t.Fatalf("ingest timing missing: %+v", in)
	}

	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 2
	ccfg.NumDocs = 24
	term := corpus.Generate(ccfg).Vocab(0)
	var out searchJSON
	getJSON(t, h, "/search?q="+term+"&size=5", http.StatusOK, &out)
	if out.Total == 0 {
		t.Fatalf("crawled index serves nothing for %q", term)
	}
}

// canonicalSearch re-encodes a /search body without its cost: per-message
// jitter advances the link streams, so the simulated cost of a repeat
// query legitimately differs call to call — the *results* may not. Every
// other field keeps its served bytes.
func canonicalSearch(t *testing.T, body []byte) string {
	t.Helper()
	var out map[string]json.RawMessage
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad search JSON %q: %v", body, err)
	}
	delete(out, "cost")
	enc, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

// TestConcurrentRequestsConsistent hammers the shared engine from many
// client goroutines and asserts every response carries results identical
// to the sequential baseline — the serving-side face of the determinism
// soak (costs are excluded: jitter draws advance per message by design).
func TestConcurrentRequestsConsistent(t *testing.T) {
	h := serverHandler(t)
	urls := []string{
		"/search?q=" + testTerm + "&size=5",
		"/search?q=" + testTerm + "&mode=any&size=3",
		"/search?q=" + testTerm + "&page=2&size=2",
	}
	want := make(map[string]string, len(urls))
	for _, u := range urls {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		want[u] = canonicalSearch(t, rec.Body.Bytes())
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				u := urls[(c+i)%len(urls)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("client %d: GET %s = %d", c, u, rec.Code)
					return
				}
				if got := canonicalSearch(t, rec.Body.Bytes()); got != want[u] {
					t.Errorf("client %d: GET %s results diverged:\n got %s\nwant %s", c, u, got, want[u])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPointerReadCounters: the cache block of /stats and /healthz shows
// how shard pointers are being read. A one-term search reads its one
// pointer exactly once — on one device of its frontend pair, nothing is
// duplicated — so n searches move PtrVerified + PtrWalks by exactly n.
// Once every pool frontend has walked each shard it is asked for, warm
// searches are all verified reads (the own replica, or one RPC; PtrWalks
// does not move); a publish that rewrites every shard costs each
// frontend at most one more walk per shard — none where the remembered
// holder is among the replicas the round wrote — and the reads are
// single verified answers again. Own engine: the counters must not see
// other tests' traffic.
func TestPointerReadCounters(t *testing.T) {
	const poolSize = 2
	engine, publisher := buildEngine(1, 10, 3, 12, poolSize, true, true, false)
	h := newHandler(engine, publisher)
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 1
	ccfg.NumDocs = 12
	corp := corpus.Generate(ccfg)

	var ready readyJSON
	getJSON(t, h, "/readyz", http.StatusOK, &ready)
	shards := ready.ShardsTotal

	cache := func() queenbee.CacheStats {
		var st statsJSON
		getJSON(t, h, "/stats", http.StatusOK, &st)
		var hz healthJSON
		getJSON(t, h, "/healthz", http.StatusOK, &hz)
		if hz.Cache.PtrVerified != st.Cache.PtrVerified || hz.Cache.PtrWalks != st.Cache.PtrWalks {
			t.Fatalf("/healthz cache %+v disagrees with /stats %+v", hz.Cache, st.Cache)
		}
		return st.Cache
	}
	search := func(n int) {
		for i := 0; i < n; i++ {
			var out searchJSON
			getJSON(t, h, "/search?q="+corp.Vocab(i%16), http.StatusOK, &out)
			if out.Total == 0 {
				t.Fatalf("query %q matched nothing", corp.Vocab(i%16))
			}
		}
	}

	const n = 64
	search(n) // warm-up: every frontend walks each shard it is asked for once
	warm := cache()
	search(n)
	steady := cache()
	t.Logf("%d warm searches: PtrVerified +%d, PtrWalks +%d (after warm-up: %d verified, %d walks)",
		n, steady.PtrVerified-warm.PtrVerified, steady.PtrWalks-warm.PtrWalks, warm.PtrVerified, warm.PtrWalks)
	if steady.PtrWalks != warm.PtrWalks {
		t.Fatalf("warm searches walked the DHT: PtrWalks %d → %d", warm.PtrWalks, steady.PtrWalks)
	}
	if got := steady.PtrVerified - warm.PtrVerified; got != n {
		t.Fatalf("%d warm searches moved PtrVerified by %d, want %d", n, got, n)
	}

	// A batch long enough to land on every shard, so every pointer is
	// re-stamped with the new generation.
	pcfg := corpus.DefaultConfig()
	pcfg.Seed = 2
	pcfg.NumDocs = 16
	var req publishJSON
	for i, d := range corpus.Generate(pcfg).Docs {
		req.Pages = append(req.Pages, pageJSON{URL: fmt.Sprintf("dweb://ptr/p-%02d", i), Text: d.Text})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var pub publishRespJSON
	postJSON(t, h, "/publish", string(body), http.StatusOK, &pub)
	if pub.Round.PointerWrites != shards || len(pub.Round.Errors) > 0 {
		t.Fatalf("publish rewrote %d of %d shards (errors %v); the batch must touch all", pub.Round.PointerWrites, shards, pub.Round.Errors)
	}

	search(n)
	after := cache()
	t.Logf("%d searches after a publish: PtrVerified +%d, PtrWalks +%d (bound %d)",
		n, after.PtrVerified-steady.PtrVerified, after.PtrWalks-steady.PtrWalks, shards*poolSize)
	if got := after.PtrVerified + after.PtrWalks - steady.PtrVerified - steady.PtrWalks; got != n {
		t.Fatalf("%d searches after a publish read %d pointers, want %d", n, got, n)
	}
	if got := after.PtrWalks - steady.PtrWalks; got > int64(shards*poolSize) {
		t.Fatalf("re-reads after one publish walked %d times, want at most %d (shards × pool)", got, shards*poolSize)
	}
}
