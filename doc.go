// Package queenbee is a simulation-complete implementation of QueenBee,
// the decentralized search engine for the Decentralized Web proposed in
// "Decentralized Search on Decentralized Web" (Lai, Liu, Lo, Kao, Yiu —
// CIDR 2019, arXiv:1809.00939).
//
// The package is a facade over the full stack in internal/: a simulated
// P2P network, a Kademlia DHT, an IPFS-like content-addressed store, a
// proof-of-authority blockchain carrying the QueenBee smart contract
// (publishing, worker-bee staking, commit–reveal task verification, the
// ad marketplace and the honey reward flows), a sharded inverted index,
// distributed PageRank, and the query frontend.
//
// A minimal session:
//
//	engine := queenbee.New(queenbee.WithBees(4))
//	alice := engine.NewAccount("alice", 1_000)
//	engine.Publish(alice, "dweb://hive", "bees make honey", nil)
//	engine.Run(3) // worker bees index the publish
//	results, _, _ := engine.Search("honey", 10)
//
// Everything runs on one machine against a deterministic virtual clock:
// no real network, no real time, fully reproducible per seed.
//
// # Structured queries
//
// Search answers flat conjunctive queries. The Query builder speaks the
// full query language (docs/query-language.md): uppercase OR/AND
// operators, '-' exclusions, "quoted phrases", site: URL-prefix
// filters, and parentheses — compiled into an execution plan that loads
// each distinct index shard once, as one parallel fetch wave, then
// intersects, unions and subtracts posting lists per operator:
//
//	resp, err := engine.Query(`solar "wind turbine" OR panels -nuclear site:dweb://energy/`).
//		Page(2, 10).      // second page of ten results
//		WithSnippets().   // fetch content, attach match snippets
//		Explain().        // record the executed plan
//		Run()
//
// resp.Total counts every matching document, resp.Results carries the
// requested page in deterministic rank order, and resp.Explain reports
// the plan tree with per-node candidate counts and the simulated
// network cost of each stage. Parse and planning failures surface as
// the typed sentinels ErrEmptyQuery, ErrBadSyntax and
// ErrShardUnavailable (match with errors.Is). The builder's All, Any and
// Phrase switch to flat modes that treat operators as plain text, and
// Search(q, k) remains as the one convenience wrapper (flat AND) over
// the same pipeline.
//
// # Query hot path
//
// The read side is built to stay allocation-light under heavy query
// traffic. Index segments are serialized in one block-max format
// (docs/segment-format.md): a sorted term dictionary whose entries
// carry per-8-posting-block skip data — last DocID, byte offset, and an
// exact block-max score frontier — over a postings region that switches
// dense terms to bitmap encoding, so a query decodes only the posting
// blocks it touches, memoized per immutable segment. Frontends layer
// two caches over the DHT — immutable segments by content digest and
// each shard's merged chain keyed by its digest chain — and fetch the
// distinct shards of a multi-term query as one parallel wave (costed as
// the slowest shard, not the sum, while staying deterministic per
// seed). The one thing a warm query still reads is each shard's
// pointer, and that is a single RPC: writers stamp pointers with the
// chain's index generation, so the replica that served the current
// pointer last time can be asked alone and believed when its stamp is
// current; anything else falls back to the K-replica quorum walk.
// Ranking is document-at-a-time block-max WAND (docs/serving.md):
// per-term cursors drive top-k early termination against a bounded
// min-heap threshold, skipping every posting block that provably cannot
// reach the current page — byte-identical to a full scan, which
// internal/oracle models independently of the engine
// (Response.ScoreStats reports postings scanned vs skipped). Each term
// scores a document with the length its own shard's segment records. Segment
// encoding remains byte-deterministic, which commit–reveal task
// verification depends on.
//
// # Concurrent serving
//
// The query side is safe for concurrent use, and concurrency costs no
// reproducibility: the network simulation derives an independent RNG
// stream per (caller, target) link, so the same seed yields the same
// results whether queries run one at a time or raced across goroutines
// (docs/serving.md has the design). A shard wave runs on the query's own
// goroutine, in shard order; warm queries run side by side, and a
// frontend walks pointers and loads chains for one wave at a time, so a
// segment is fetched once and later queries find it cached. Both frontend caches
// are byte-budgeted LRUs so a long-lived serving deployment stays
// bounded under publish churn.
// cmd/queenbeed serves /search, /explain, /healthz and /stats over HTTP
// against one shared engine on exactly this contract; write-side
// methods remain a single deterministic driver.
//
// # The serving tier: frontend pool, deadlines, hedged reads
//
// Queries are served by a pool of per-peer frontends
// (WithFrontendPool(n)) behind a deterministic least-loaded balancer —
// least projected simulated finish (accumulated serving time plus, per
// query in flight, the mean cost of the frontend's own queries), then
// fewest in-flight, then round-robin. Results are frontend-independent, so pool
// size never changes responses, only costs and serving makespan (pool=4
// cuts an 8-client workload's simulated makespan ≈4×). A frontend reads
// a shard pointer from its own DHT node's replica, for free, when that
// holds a current one. WithHedgedReads pairs (the name predates the
// rule; nothing is duplicated) each frontend with a buddy: a shard fetch
// goes to the buddy only when both devices have measured that shard's
// pointer read and the buddy's was faster, to the querying frontend
// otherwise — which measures it there — and a fetch that fails on one
// device is retried on the other.
//
// Every query carries a request lifecycle: context.Context (QueryCtx)
// plus a simulated deadline (Deadline) thread through the shard and
// snippet waves down to the simulated network, whose CallCtx short-circuits cancelled calls
// without consuming RNG draws — cancellation never desyncs per-seed
// determinism. A stopped query abandons its remaining wave members,
// leaves the caches consistent, and fails with the typed
// ErrDeadlineExceeded carrying a partial Explain trace costed as the
// partial wave that actually ran. Same seed + same deadline ⇒ the same
// stop point, every run.
//
// # Self-healing under churn
//
// The swarm is made of personal devices that crash, lose connectivity
// and return without warning (docs/robustness.md has the full design).
// Engine.Cluster.SetFaultPlan installs a deterministic churn schedule —
// crashes, recoveries, partitions, lossy-link episodes — that advances
// with the chain, firing the same events on the same victims every run.
// Beneath it, the DHT call layer retries transient failures (dropped
// messages, overload shedding — netsim.Retryable) with deterministic
// backoff+jitter, and iterative lookups widen their shortlist from the
// full routing table when churn has eaten it. WithMaintenance runs a
// self-healing pass after every round: under-replicated shard pointers
// are republished, segments below K are re-seeded from a surviving
// replica (hash-verified), and live peers re-announce their provider
// records; Engine.RepairStats reports the accumulated repair work.
// WithDegradedReads lets a query whose wave lost some shards return the
// partial answer with a typed Degraded warning instead of failing, and
// Engine.Ready summarizes per-shard reachability — served by queenbeed
// as GET /readyz (200/503), distinct from /healthz liveness.
//
// # Concurrent ingest
//
// Inside that single driver, the write side is concurrent in simulated
// time (docs/indexing.md): each protocol round runs the bees' fetches,
// announces and DHT writes on one goroutine in a fixed order and costs
// each wave as parallel legs, fans only the pure segment and rank builds
// out across goroutines, materializes the round's winning segments as a
// batch — one shard-pointer read-modify-write per touched shard,
// O(shards) instead of O(segments×shards) — and reports wave-vs-serial
// costs in a RoundReceipt. The bees fetch from the peer the publish transaction
// names as provider, so the publisher's provider announce runs beside
// the round rather than ahead of it. PublishBatch ingests N pages as ONE atomic contract
// transaction and one commit-reveal cycle, with the quorum building a
// single multi-doc segment. Costs and DHT state are identical per seed
// whatever GOMAXPROCS is. cmd/queenbeed's POST /publish serves batch
// ingest over HTTP under the server's write lock: queries wait for the
// whole publish round, and with maintenance on for its repair pass too.
//
// # Streaming ingest
//
// Above batch publishing sits a streaming crawler (docs/ingest.md):
// Engine.Crawl walks a link graph from seed URLs in one loop on the
// caller's goroutine — fetch (seeded per-URL latency and failures),
// extract, MinHash near-duplicate demotion (scraper mirrors are counted
// and dropped, but still crawled through), batch, publish round. A
// simulated-time model costs the same crawl as a staged pipeline:
// parallel fetch workers, a bounded queue with backpressure, and
// commit/reveal rounds that pipeline — batch N+1's commit overlaps
// round N's reveal, so ingest runs at the slower phase's pace instead
// of the sum. Execution against the cluster is strictly sequential, so
// a crawl leaves the DHT byte-identical to a plain PublishBatch loop;
// IngestStats reports fetched/deduped/published counts, simulated
// makespan, queue and stall waits, and the pipelining speedup.
// cmd/queenbeed boots from a crawl with -crawl and surfaces the counters
// under GET /stats.
//
// # Write-path scaling: tiered compaction and rank epochs
//
// The write side stays affordable as the corpus grows (docs/indexing.md
// has the full policy). Each shard pointer runs tiered compaction:
// fresh batch segments enter tier 0; once a tier holds 4 runs, its
// leading runs that outweigh the rest of the tier move up unrewritten
// (the pointer records each run's size) and the others, if 4 are left,
// merge — whole bucket, at most one merge per shard per round — into the
// next tier, and merged runs are restricted to the terms that hash to
// their shard (full doc-length tombstones retained, so shadowing
// survives the restriction). Write amplification is therefore bounded by
// the tier count — each ingested byte is rewritten about once per tier,
// O(log rounds) tiers — instead of growing with history;
// Engine.WriteStats ledgers ingested vs compacted bytes and
// RoundReceipt carries the per-round figure. A segment that
// re-registers a URL lands on every shard, so the page's new doc length
// tombstones its old postings wherever they sit.
//
// The rank-epoch contract: PageRank refreshes ride the publish stream
// as epochs. A full epoch (ComputeRanks) recomputes the whole graph; a
// delta epoch (ComputeRanksDelta, or ingest.Options.RankEvery on a
// crawl driven through ingest.Crawl) re-walks only the dirty closure — pages edited since the last epoch
// plus everything reachable from them — warm-started from the previous
// vector, at cost proportional to the closure, not the graph. Delta
// epochs are approximate BY DESIGN: unreached ranks keep their stale
// values, drift is bounded by the residual tolerance, and top-k
// ordering is preserved for any head separated by more than the drift.
// Exactness has an escape hatch, not an apology: every 4th epoch runs
// full, and a caller
// needing exact ranks runs one full epoch to zero all drift.
// Engine.RankStatus reports the epoch counter, the last full epoch and
// deltas-since-full, so staleness is observable; dirty sets are
// snapshotted on-chain in sorted order, so epochs are deterministic and
// commit-reveal verifiable like any other task. TestScaleMillion drives
// the whole write path — crawl, tiered compaction, delta epochs closed
// by a full epoch, then serving — at 10^4 pages in CI (-short), 10^5
// under QUEENBEE_SCALE_CI=1 and the full million under QUEENBEE_SCALE=1,
// with heap and write-amplification budgets asserted; E19 tabulates
// flat-vs-linear compaction cost and closure-vs-graph rank cost.
//
// # Static enforcement
//
// The determinism and cost-accounting contract is enforced statically
// as well as by the soaks: cmd/detlint (docs/static-analysis.md) is a
// dependency-free analysis suite that flags order-sensitive map
// iteration, wall-clock reads outside cmd/, math/rand use outside
// internal/xrand, swallowed dht/store/chain errors, and dropped
// netsim.Cost values. The tree stays clean — every sanctioned exception
// carries a reasoned //detlint:ignore directive, and the per-analyzer
// suppression counts print in every CI log.
package queenbee
