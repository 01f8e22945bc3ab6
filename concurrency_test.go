package queenbee

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
)

// soakClients is the goroutine count of the concurrency soak — the
// serving contract is asserted at this width on every `go test -race`.
const soakClients = 16

// soakQuery is one shaped request a soak client issues.
type soakQuery struct {
	label string
	run   func(e *Engine) (*Response, error)
}

// soakWorkload builds the mixed query shapes of one client: flat AND,
// OR, phrase, parsed boolean with exclusion, site: filter, pagination.
// Clients get rotated vocabulary so the shard waves overlap but differ.
func soakWorkload(corp *corpus.Corpus, client int) []soakQuery {
	v := func(i int) string { return corp.Vocab((client + i) % 12) }
	words := strings.Fields(corp.Docs[client%len(corp.Docs)].Text)
	phrase := words[0]
	if len(words) > 1 {
		phrase = words[0] + " " + words[1]
	}
	and := v(0) + " " + v(1)
	or := v(0) + " " + v(2)
	parsed := fmt.Sprintf("%s OR %s -%s", v(0), v(3), v(4))
	site := fmt.Sprintf("%s site:dweb://wiki/page-000", v(0))
	return []soakQuery{
		{"all:" + and, func(e *Engine) (*Response, error) { return e.Query(and).All().Limit(5).Run() }},
		{"any:" + or, func(e *Engine) (*Response, error) { return e.Query(or).Any().Limit(5).Run() }},
		{"phrase:" + phrase, func(e *Engine) (*Response, error) { return e.Query(phrase).Phrase().Limit(5).Run() }},
		{"parsed:" + parsed, func(e *Engine) (*Response, error) { return e.Query(parsed).Limit(5).Run() }},
		{"site:" + site, func(e *Engine) (*Response, error) { return e.Query(site).Limit(5).Run() }},
		{"page2:" + v(0), func(e *Engine) (*Response, error) { return e.Query(v(0)).All().Page(2, 3).Run() }},
	}
}

// soakEngine publishes a corpus and fully indexes and ranks it. Extra
// options (pool size, hedging, deadlines) append after the base shape.
func soakEngine(tb testing.TB, seed uint64, docs int, extra ...Option) (*Engine, *corpus.Corpus) {
	tb.Helper()
	e := New(append([]Option{WithSeed(seed), WithPeers(12), WithBees(3)}, extra...)...)
	owner := e.NewAccount("soak-owner", 10_000_000)
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = docs
	corp := corpus.Generate(ccfg)
	for _, d := range corp.Docs {
		if err := e.Publish(owner, d.URL, d.Text, d.Links); err != nil {
			tb.Fatal(err)
		}
	}
	e.RunUntilIdle()
	e.ComputeRanks(4)
	return e, corp
}

// canonical serializes the parts of a response the determinism contract
// covers: results with their CIDs (which a Result's JSON leaves out),
// ads and totals. Simulated costs are excluded — every message advances
// its link's jitter stream, so repeat queries observe different (still
// seed-deterministic) costs.
func canonical(tb testing.TB, resp *Response) string {
	tb.Helper()
	cids := make([]string, len(resp.Results))
	for i, r := range resp.Results {
		cids[i] = r.CID
	}
	b, err := json.Marshal(struct {
		Results []Result
		CIDs    []string
		Ads     []Ad
		Total   int
	}{resp.Results, cids, resp.Ads, resp.Total})
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// TestQueryConcurrencySoak is the serving determinism soak: 16 client
// goroutines fire mixed AND/OR/phrase/parsed/site:/paginated queries at
// one engine, and every response must be byte-identical to the same
// client's sequential run on the same seed. (The TestQuery name prefix
// keeps it inside CI's determinism re-run.)
func TestQueryConcurrencySoak(t *testing.T) {
	e, corp := soakEngine(t, 7, 24)

	// Sequential baseline: client by client, query by query.
	baseline := make([][]string, soakClients)
	for c := 0; c < soakClients; c++ {
		for _, q := range soakWorkload(corp, c) {
			resp, err := q.run(e)
			if err != nil {
				t.Fatalf("sequential %s: %v", q.label, err)
			}
			baseline[c] = append(baseline[c], canonical(t, resp))
		}
	}

	// Concurrent pass over the same engine: all clients at once, twice,
	// so later rounds race against warm and mixed cache states too.
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for c := 0; c < soakClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, q := range soakWorkload(corp, c) {
					resp, err := q.run(e)
					if err != nil {
						t.Errorf("round %d client %d %s: %v", round, c, q.label, err)
						return
					}
					if got := canonical(t, resp); got != baseline[c][i] {
						t.Errorf("round %d client %d %s diverged:\nconcurrent %s\nsequential %s",
							round, c, q.label, got, baseline[c][i])
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
}

// TestQueryConcurrentThroughput measures aggregate serving throughput in
// the simulator's own currency, simulated time: a single sequential
// driver pays the sum of every query's latency, while 8 concurrent
// clients only pay their slowest member (each client's own queries stay
// sequential). The modeled speedup at 8 clients must be ≥ 4× — the
// serving claim queenbeed is built on. Costs are measured from real
// goroutine executions, so -race patrols the same path.
//
// The claim is about steady state. A cold shard load (walk, segment
// fetches, merge: ~0.3–0.6 s) is billed to whichever client the
// scheduler lets reach it first, and eight of them against ~10 ms warm
// queries would decide the slowest client on their own. So the
// workloads first run sequentially until a pass is served warm
// (CacheStats.WarmSince); everything measured after it must stay warm.
//
// The two sides are measured separately. The serialized side is one
// driver running the whole measured query set; the concurrent side is
// the slowest of the 8 clients running the same set between them. A
// query that costs more when others run beside it (a view reloaded, a
// pointer walked or read over the network where it was free alone)
// therefore lowers the speedup.
//
// Each client runs the same query mix: round r of client c runs
// workload (c+r) mod 8, so the clients' shard waves still differ at any
// moment. A fixed workload per client does not measure concurrency:
// whether a warm query pays a pointer RPC depends on whether the
// frontend's own DHT node holds that shard's pointer, so one client's
// workload costs six times another's, and the ratio of their sums is
// the same with or without concurrency (≈ 3.6× on seed 3).
func TestQueryConcurrentThroughput(t *testing.T) {
	const clients, rounds = 8, 8
	e, corp := soakEngine(t, 3, 24)
	workload := func(c, round int) []soakQuery { return soakWorkload(corp, (c+round)%clients) }

	for tries := 0; ; tries++ {
		if tries == 20 {
			t.Fatalf("still loading shards cold after %d sequential passes", tries)
		}
		cache := e.CacheStats()
		for c := 0; c < clients; c++ {
			for _, q := range soakWorkload(corp, c) {
				if _, err := q.run(e); err != nil {
					t.Fatalf("warm-up client %d %s: %v", c, q.label, err)
				}
			}
		}
		if e.CacheStats().WarmSince(cache) {
			break
		}
	}

	cache := e.CacheStats()
	var serialized int64 // one driver, the whole query set, ns
	for c := 0; c < clients; c++ {
		for round := 0; round < rounds; round++ {
			for _, q := range workload(c, round) {
				resp, err := q.run(e)
				if err != nil {
					t.Fatalf("sequential client %d %s: %v", c, q.label, err)
				}
				serialized += int64(resp.Cost.Latency)
			}
		}
	}
	perClient := make([]int64, clients) // summed simulated latency, ns
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sum int64
			for round := 0; round < rounds; round++ {
				for _, q := range workload(c, round) {
					resp, err := q.run(e)
					if err != nil {
						t.Errorf("client %d %s: %v", c, q.label, err)
						return
					}
					sum += int64(resp.Cost.Latency)
				}
			}
			perClient[c] = sum
		}(c)
	}
	wg.Wait()
	if !e.CacheStats().WarmSince(cache) {
		t.Fatal("the measured queries loaded a shard cold")
	}

	var concurrent int64
	for _, s := range perClient {
		if s == 0 {
			t.Fatal("a client accumulated no simulated cost")
		}
		concurrent = max(concurrent, s)
	}
	speedup := float64(serialized) / float64(concurrent)
	t.Logf("simulated makespan: serialized %v, %d clients %v → %.1f× aggregate throughput",
		time.Duration(serialized), clients, time.Duration(concurrent), speedup)
	if speedup < 4 {
		t.Fatalf("aggregate throughput at %d clients = %.2f×, want ≥ 4×", clients, speedup)
	}
}
