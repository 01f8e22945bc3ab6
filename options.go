package queenbee

import "repro/internal/core"

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

// WithFrontendPool sets the serving tier's size: n stateless frontends,
// each attached to its own peer with its own byte-budgeted caches,
// behind a deterministic least-loaded balancer (least projected
// simulated finish — accumulated serving time plus in-flight queries at
// the frontend's mean query cost — then fewest in-flight, then
// round-robin). Results
// are frontend-independent, so the pool size never changes responses —
// it divides the serving tier's simulated makespan, which
// Engine.PoolStats exposes per frontend. Non-positive selects 1.
func WithFrontendPool(n int) Option {
	return func(c *core.Config) { c.PoolSize = n }
}

// WithHedgedReads pairs each pool frontend with a second one; "hedged"
// now means paired, and no fetch is duplicated. Each shard fetch goes to
// the second frontend only when both have measured its pointer read and
// the second's was faster, to the querying frontend otherwise (which
// measures it) — at most one RPC per shard on a warm query, none where
// the chosen frontend's own node holds the pointer. A fetch that fails
// on one is retried on the other. Requires WithFrontendPool(n ≥ 2); a
// size-1 pool runs unpaired.
func WithHedgedReads(on bool) Option {
	return func(c *core.Config) { c.HedgedReads = on }
}

// WithMaintenance runs one self-healing pass after every protocol
// round: shard pointers replicated below K are republished, segments below K are re-seeded from a surviving replica
// (hash-verified), and live peers ping the nodes holding their provider
// records and re-announce those whose replica set churn thinned.
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
