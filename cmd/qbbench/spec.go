package main

import (
	"math"
	"time"
)

// nominalSeconds is the -seconds value BENCHMARK.json runs with; every
// operation count below is stated at that length and scales linearly
// with -seconds, so a load phase is a fixed operation count on both
// sides of a comparison, never a fixed duration.
const nominalSeconds = 10

// sloLimit is the latency limit behind search_slo_ratio.
const sloLimit = 50 * time.Millisecond

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd is the gated set. The benchmark contract reports every
// end-to-end metric on every workload and forbids one that reads 0, so
// only a metric every workload can measure at home, or by a phase that
// does not read the host clock, can be gated; and the issue demotes a
// metric that two sets of runs cannot repeat within 10 %. That leaves
// set-up time, write amplification and the three simulated costs.
// Bounds are three times the widest spread of README.md's noise study
// and at most 10 %; setup_s alone is wall-clock time, mandatory, and
// carries the contract's widest bound because this host's speed drifts
// by up to half within minutes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"search_sim_ms_p50", "ms", "lower", 0.10},
	{"search_sim_msgs", "msgs", "lower", 0.09},
	{"publish_sim_ms_p50", "ms", "lower", 0.10},
	{"write_amp", "ratio", "lower", 0.01},
}

// wallClock are the issue's other user-visible metrics. Each is measured
// only on the workloads whose home phase produces it (workload.emits)
// and none is gated: two sets of runs of the same code, ten minutes
// apart on this host, differ by 10-50 % on every one of them (README.md,
// noise study), and the issue's rule for such a metric is demotion to a
// diagnostic.
var wallClock = []metricDef{
	{"search_qps", "1/s", "higher", 0},
	{"search_ms_p50", "ms", "lower", 0},
	{"search_slo_ratio", "ratio", "higher", 0},
	{"publish_pages_per_s", "1/s", "higher", 0},
	{"publish_ms_p50", "ms", "lower", 0},
	{"crawl_pages_per_s", "1/s", "higher", 0},
}

// layers lists the single-layer metrics of the traced run, named after
// the repo's modules. README.md says which user-visible metric each
// should move.
var layers = []metricDef{
	{"queenbeed.http_ms", "ms", "lower", 0},
	{"queenbeed.stall_share", "ratio", "lower", 0},
	{"core.cold_share", "ratio", "lower", 0},
	{"facade.query_ms", "ms", "lower", 0},
	{"query.parse_us", "us", "lower", 0},
	{"core.execute_warm_ms", "ms", "lower", 0},
	{"core.execute_cold_ms", "ms", "lower", 0},
	{"dht.get_ms", "ms", "lower", 0},
	{"dht.get_msgs", "msgs", "lower", 0},
	{"dht.gets_per_query", "count", "lower", 0},
	{"store.fetch_ms", "ms", "lower", 0},
	{"store.fetch_bytes", "B", "lower", 0},
	{"index.decode_ms", "ms", "lower", 0},
	{"index.merge_ms", "ms", "lower", 0},
	{"index.wand_us", "us", "lower", 0},
	{"index.postings_scanned", "count", "lower", 0},
	{"index.blocks_skipped", "count", "higher", 0},
	{"core.cache.chain_hit_ratio", "ratio", "higher", 0},
	{"core.cache.seg_hit_ratio", "ratio", "higher", 0},
	{"core.cache.chain_mb", "MB", "lower", 0},
	{"core.pool.hedges_per_query", "count", "lower", 0},
	{"core.publish_ms", "ms", "lower", 0},
	{"store.add_ms", "ms", "lower", 0},
	{"chain.seal_ms", "ms", "lower", 0},
	{"core.round_ms", "ms", "lower", 0},
	{"core.round.segment_writes", "count", "lower", 0},
	{"core.round.pointer_writes", "count", "lower", 0},
	{"core.round.compactions", "count", "lower", 0},
	{"core.round.compacted_bytes", "B", "lower", 0},
	{"core.maintenance_ms", "ms", "lower", 0},
	{"store.reprovide_ms", "ms", "lower", 0},
	{"core.maintenance.keys_probed", "count", "lower", 0},
	{"core.maintenance.republished", "count", "lower", 0},
	{"core.maintenance.reprovided", "count", "lower", 0},
	{"index.analyze_us_per_page", "us", "lower", 0},
	{"index.build_ms", "ms", "lower", 0},
	{"index.encode_ms", "ms", "lower", 0},
	{"rank.graph_ms", "ms", "lower", 0},
	{"rank.compute_ms", "ms", "lower", 0},
	{"rank.delta_ms", "ms", "lower", 0},
	{"ingest.crawl_ms_per_page", "ms", "lower", 0},
	{"ingest.signature_us", "us", "lower", 0},
	{"ingest.queue_wait_us", "us", "lower", 0},
	{"ingest.stall_wait_us", "us", "lower", 0},
	// VmHWM is one transient spike on publish_stream and a race between
	// reloads and the collector on serve_publish: its spread over ten
	// runs is 6-11 %, so it is reported on every workload and not gated.
	{"mem_peak_mb", "MB", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.rss_end_mb", "MB", "lower", 0},
	{"search_ms_p90", "ms", "lower", 0},
	{"search_ms_p99", "ms", "lower", 0},
	{"publish_ms_max", "ms", "lower", 0},
	{"loadgen.late_ms_max", "ms", "lower", 0},
	{"host.steal_ratio", "ratio", "lower", 0},
	{"host.disturbed_attempts", "count", "lower", 0},
	{"trace.search.unattributed_ms", "ms", "lower", 0},
	{"trace.publish.unattributed_ms", "ms", "lower", 0},
	{"trace.crawl.unattributed_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	// Reads 0 on every healthy run, which an end-to-end metric may not;
	// failures gate through the result line and the exit code.
	{"fail_ratio", "ratio", "lower", 0},
}

// perLayer is everything a traced run reports: the ungated user-visible
// metrics, then the layers.
var perLayer = append(append([]metricDef(nil), wallClock...), layers...)

// openLoopQPS is the rate of the open loop: at this rate and corpus size
// the server keeps up between publishes, so the phase ends on schedule.
const openLoopQPS = 100

// phase names what a workload is about. Its home phase runs first, on a
// freshly booted server; memory, /stats and the counter deltas are read
// when it ends. The other phase, where there is one, is a probe for the
// simulated cost the home phase does not produce; it reads no clock.
type phase int

const (
	homeSearch  phase = iota // closed-loop searches, then a publish probe
	homePublish              // back-to-back publishes, then a search probe
	homeServe                // open-loop searches beside publishes
)

// workload is one traffic mix. The counts are stated at nominalSeconds
// and one size (scale 1); scaled applies -seconds and the size scale
// the smoke test uses.
type workload struct {
	Name  string
	Why   string
	home  phase
	emits []string // the wallClock metrics its home phase measures; the others read 0

	docs  int  // boot corpus
	boots int  // boots per run; setup_s is their median
	crawl bool // boot with -crawl -maintenance=false

	pool     int  // distinct queries
	zipf     bool // request order Zipf(1.0) over the pool, else uniform
	clients  int  // closed-loop search clients
	sliced   bool // homogeneous phase: slice estimator and dispersion self-check
	warmup   int  // discarded requests per client
	requests int  // measured requests per client (closed loop) or in total (open loop)

	batches    int // POST /publish batches; in the open loop spread evenly over the phase
	batchPages int // pages per batch
	verifyURLs int // published URLs checked for findability
}

var workloads = []workload{
	{
		Name:  "search_warm",
		Why:   "read-only Zipf query mix on a working set that fits the caches: parse, plan, DHT pointer read, WAND, compose, JSON",
		home:  homeSearch,
		emits: []string{"search_qps", "search_ms_p50", "search_slo_ratio"},
		docs:  1000, boots: 2,
		pool: 512, zipf: true, clients: 2, sliced: true, warmup: 500, requests: 8000,
		batches: 6, batchPages: 32,
	},
	{
		Name:  "publish_stream",
		Why:   "back-to-back 32-page POST /publish rounds: store add, contract tx, seal, bee build, segment puts, pointer RMW, compaction, maintenance",
		home:  homePublish,
		emits: []string{"publish_pages_per_s", "publish_ms_p50"},
		docs:  1000, boots: 2,
		pool: 512, zipf: true, clients: 1, warmup: 300, requests: 2000,
		batches: 24, batchPages: 32, verifyURLs: 64,
	},
	{
		Name:  "serve_publish",
		Why:   "open-loop 100 q/s beside a 16-page publish every 4 s: the server write-lock stall and the post-publish cold reload",
		home:  homeServe,
		emits: []string{"search_ms_p50", "search_slo_ratio", "publish_ms_p50"},
		docs:  1000, boots: 2,
		pool: 512, zipf: true, clients: 1, warmup: 1000, requests: 2000,
		batches: 5, batchPages: 16,
	},
	{
		Name:  "crawl_cold",
		Why:   "crawler boot without maintenance, then one client on a working set larger than the chain caches: segment fetch, decode, merge",
		home:  homeSearch,
		emits: []string{"crawl_pages_per_s", "search_qps"},
		docs:  10000, boots: 1, crawl: true,
		pool: 2048, zipf: false, clients: 1, warmup: 100, requests: 400,
		batches: 40, batchPages: 32,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns w with its operation counts scaled to seconds and its
// corpus sizes by size (1 = as specified; the smoke test runs 1/20).
func (w workload) scaled(seconds int, size float64) workload {
	ops := float64(seconds) / nominalSeconds * size
	n := func(v, floor int, f float64) int {
		return max(floor, int(math.Round(float64(v)*f)))
	}
	w.docs = n(w.docs, 64, size)
	// Slices of the estimator need a few requests each.
	w.warmup = n(w.warmup, 10, ops)
	w.requests = n(w.requests, 10*nSlices, ops)
	w.batches = n(w.batches, 2, ops)
	w.verifyURLs = min(w.verifyURLs, w.batches*w.batchPages)
	w.pool = n(w.pool, 32, size)
	return w
}
