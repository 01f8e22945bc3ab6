package queenbee

import (
	"time"

	"repro/internal/core"
)

// Option configures an Engine at construction.
type Option func(*core.Config)

// WithSeed sets the deterministic simulation seed.
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithPeers sets the number of plain DWeb devices in the swarm.
func WithPeers(n int) Option {
	return func(c *core.Config) { c.NumPeers = n }
}

// WithBees sets the number of worker bees.
func WithBees(n int) Option {
	return func(c *core.Config) { c.NumBees = n }
}

// WithShards sets the term-shard count of the distributed index.
func WithShards(n int) Option {
	return func(c *core.Config) { c.NumShards = n }
}

// WithQuorum sets how many bees verify each index/rank task.
func WithQuorum(q int) Option {
	return func(c *core.Config) { c.Contract.Quorum = q }
}

// WithRankWeight controls how strongly page rank blends into scores.
func WithRankWeight(w float64) Option {
	return func(c *core.Config) { c.RankWeight = w }
}

// WithBlockInterval sets the simulated time between sealed blocks.
func WithBlockInterval(d time.Duration) Option {
	return func(c *core.Config) { c.BlockInterval = d }
}

// WithReplication sets the DHT replication factor (bucket size K).
func WithReplication(k int) Option {
	return func(c *core.Config) { c.DHT.K = k }
}

// WithPopularityThreshold sets the page-rank threshold above which
// content providers earn popularity honey.
func WithPopularityThreshold(t float64) Option {
	return func(c *core.Config) { c.Contract.PopularityThreshold = t }
}

// WithSwarming stripes large-content downloads across all providers in
// parallel (BitTorrent-style), instead of pulling from one peer.
func WithSwarming(on bool) Option {
	return func(c *core.Config) { c.Peer.Swarming = on }
}

// WithStakeWeightedQuorum assigns task quorum seats with probability
// proportional to worker stake (Sybil-resistant seating).
func WithStakeWeightedQuorum(on bool) Option {
	return func(c *core.Config) { c.Contract.StakeWeightedQuorum = on }
}

// WithParallelRounds controls whether the write-side round engine fans
// its work out across goroutines: bee commit compute as one wave per
// round, then shard materialization as one wave per touched shard. On
// by default. DHT state is byte-identical either way (the round engine
// orders every write deterministically), so turning it off only trades
// wall-clock for a single-threaded drive — useful for golden-cost
// comparisons and the determinism soak. Shared-stream mode
// (WithSharedNetStream) forces rounds sequential regardless.
func WithParallelRounds(on bool) Option {
	return func(c *core.Config) { c.ParallelRounds = on }
}

// WithFrontendPool sets the serving tier's size: n stateless frontends,
// each attached to its own peer with its own byte-budgeted caches,
// behind a deterministic least-loaded balancer (fewest in-flight, then
// least accumulated simulated serving time, then round-robin). Results
// are frontend-independent, so the pool size never changes responses —
// it divides the serving tier's simulated makespan, which
// Engine.PoolStats exposes per frontend. Non-positive selects 1.
func WithFrontendPool(n int) Option {
	return func(c *core.Config) { c.PoolSize = n }
}

// WithHedgedReads duplicates each query's slowest shard fetch on a
// second pool frontend: the first reply wins the latency, both replies
// pay their bytes and messages, and a fetch that failed on the primary
// frontend is rescued when the hedge succeeds. Requires
// WithFrontendPool(n ≥ 2); a size-1 pool runs unhedged.
func WithHedgedReads(on bool) Option {
	return func(c *core.Config) { c.HedgedReads = on }
}

// WithDefaultDeadline bounds the simulated latency of every query that
// carries no deadline of its own: once the accumulated simulated cost
// reaches d at a checkpoint, the remaining waves are abandoned and the
// query fails with ErrDeadlineExceeded plus a partial Explain trace.
// Deterministic per seed. Zero means no bound.
func WithDefaultDeadline(d time.Duration) Option {
	return func(c *core.Config) { c.DefaultDeadline = d }
}

// WithMaintenance runs one self-healing pass after every protocol
// round: shard pointers and index stats replicated below K are
// republished, segments below K are re-seeded from a surviving replica
// (hash-verified), and live peers re-announce their provider records.
// Engine.RepairStats reports what the loops have done. Off by default —
// a healthy deployment's maintenance traffic is pure probe cost.
func WithMaintenance(on bool) Option {
	return func(c *core.Config) { c.Maintenance = on }
}

// WithDegradedReads lets a query whose wave lost some — but not all —
// shards return the partial answer it could assemble, tagged with a
// typed Degraded warning (failed shards, completeness fraction, cause)
// instead of failing with ErrShardUnavailable. Off by default: the
// all-or-nothing contract stands unless the deployment opts in.
func WithDegradedReads(on bool) Option {
	return func(c *core.Config) { c.DegradedReads = on }
}

// WithExhaustiveScoring disables block-max early termination and scores
// every candidate document against every query term, exactly as the
// engine did before segment format v3. Results are byte-identical either
// way (the WAND executor is property-tested against this mode); the
// switch exists for baseline measurement — E18 compares the two — and as
// an escape hatch. Off by default.
func WithExhaustiveScoring(on bool) Option {
	return func(c *core.Config) { c.ExhaustiveScoring = on }
}

// WithMonolithicCompaction switches the write path back to the legacy
// compaction policy: once a shard's chain passes the threshold, the
// WHOLE chain is merged into one segment — every firing rewrites
// O(shard bytes), so steady ingest pays write amplification that grows
// with the shard. The default (off) is tiered compaction: size-tiered
// levels with at most one bucket merge per shard per round, keeping
// bytes rewritten per round O(round bytes · log(shard bytes)). Search
// results are byte-identical under either policy (property-tested); the
// switch exists as the E19 control and as an escape hatch.
func WithMonolithicCompaction(on bool) Option {
	return func(c *core.Config) { c.MonolithicCompaction = on }
}

// WithRankFullEvery sets the exactness escape hatch of delta page-rank
// epochs: every n-th epoch started by ComputeRanksDelta runs a full
// recompute instead of an incremental pass, bounding the drift the
// frozen-boundary approximation can accumulate. Zero selects the
// default cadence; negative disables full recomputes entirely (every
// epoch after the first runs delta). Engine.RankStatus reports the
// resulting staleness.
func WithRankFullEvery(n int) Option {
	return func(c *core.Config) { c.RankFullEvery = n }
}

// WithSharedNetStream switches the network simulation back to the legacy
// single RNG stream for jitter/drop draws. Simulated costs then match
// historical golden values exactly, but concurrent queries lose per-seed
// cost reproducibility (results stay deterministic either way), and the
// engine serializes shard waves to keep the stream stable.
func WithSharedNetStream(on bool) Option {
	return func(c *core.Config) { c.Net.SharedStream = on }
}
