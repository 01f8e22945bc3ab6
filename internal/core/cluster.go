// Package core is QueenBee itself — the paper's primary contribution. It
// wires the substrates together exactly as Figure 1 sketches:
//
//   - content creators publish through the smart contract (no crawling);
//     the page bytes go to the DWeb content store, the URL→CID binding
//     and the index task go on chain;
//   - worker bees poll the chain for tasks, fetch content from the DWeb,
//     build deterministic index segments or page-rank partitions, vote by
//     commit–reveal, and materialize winning results into the DHT;
//   - the frontend answers keyword queries by fetching the matched
//     inverted lists from the DHT, intersecting them, ranking with
//     BM25×PageRank, and attaching relevant ads from the contract's ad
//     market.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/dht"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/xrand"
)

// Config assembles a simulated QueenBee deployment.
type Config struct {
	Seed uint64

	// NumPeers is the number of plain DWeb devices (beyond bees).
	NumPeers int
	// NumBees is the number of worker bees.
	NumBees int
	// NumShards is the term-shard count of the distributed index.
	NumShards int
	// BlockInterval is the simulated time between sealed blocks.
	BlockInterval time.Duration
	// RankWeight blends page rank into query scores.
	RankWeight float64

	// SegCacheBytes bounds each frontend's per-digest segment cache;
	// ChainCacheBytes bounds its per-shard merged-chain cache. Publish
	// churn retires digests and chains, so both are LRU-evicted against
	// these budgets. Zero selects the defaults below.
	SegCacheBytes   int64
	ChainCacheBytes int64

	// PoolSize is the number of frontends in the serving tier, each
	// attached to its own peer with its own caches, behind the
	// deterministic least-loaded balancer (see FrontendPool). Zero or
	// negative means 1.
	PoolSize int
	// HedgedReads duplicates each query's slowest shard fetch on a
	// second pool frontend: first reply wins the latency, both replies
	// pay bytes. Needs PoolSize ≥ 2.
	HedgedReads bool
	// DefaultDeadline bounds the simulated latency of queries that carry
	// no deadline of their own (see Query.Deadline). Zero means none.
	DefaultDeadline time.Duration

	// Maintenance runs the self-healing pass (republish, re-seed, repair,
	// reprovide — see RunMaintenance) at the end of every processed round.
	Maintenance bool
	// DegradedReads lets queries return partial results with a typed
	// Degraded warning when some shards stay unreachable after retries,
	// instead of failing the whole wave.
	DegradedReads bool

	// RankFullEvery makes every Nth rank epoch started through
	// StartRankEpochDelta a full recompute instead of a delta — the
	// exactness escape hatch bounding the frozen-subgraph approximation's
	// drift. Zero selects the default (4); negative disables full
	// recomputes entirely (every epoch after the first is a delta).
	RankFullEvery int

	Net      netsim.Config
	DHT      dht.Config
	Peer     store.PeerConfig
	Contract contracts.Config
}

// Default frontend cache budgets: enough for every simulated corpus to
// stay fully warm, small enough that a browser-grade device could donate
// them.
const (
	DefaultSegCacheBytes   = 32 << 20
	DefaultChainCacheBytes = 32 << 20
)

// DefaultConfig returns a small, fast deployment.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		NumPeers:        16,
		NumBees:         4,
		NumShards:       8,
		BlockInterval:   5 * time.Second,
		RankWeight:      1.0,
		SegCacheBytes:   DefaultSegCacheBytes,
		ChainCacheBytes: DefaultChainCacheBytes,
		Net:             netsim.DefaultConfig(),
		DHT:             dht.DefaultConfig(),
		Contract:        contracts.DefaultConfig(),
	}
}

// Cluster is one simulated QueenBee deployment: the network, the chain,
// the contract, the DWeb peers and the worker bees.
type Cluster struct {
	cfg Config

	Clock *vclock.Clock
	Net   *netsim.Network
	Chain *chain.Chain
	QB    *contracts.QueenBee

	Peers []*store.Peer
	Bees  []*WorkerBee

	treasury *chain.Account
	nonces   map[chain.Address]uint64
	rng      *xrand.RNG

	nextRankEpoch uint64

	// bootCost accumulates the DHT join traffic paid while assembling
	// the deployment (initial bootstrap plus every later AddBee join).
	// It is deliberately kept out of per-query receipts: experiments
	// report steady-state serving costs, and setup traffic is exposed
	// separately through BootCost.
	bootCost netsim.Cost

	// Fault injection and self-healing (see maintenance.go).
	faultPlan  *netsim.FaultPlan
	faultEpoch time.Time
	repairMu   sync.Mutex
	repair     RepairStats

	// Write-path accounting (see WriteStats): accumulated round counters
	// plus the latest per-shard tier layout, guarded so serving surfaces
	// (queenbeed GET /stats) can read them while rounds run.
	writeMu    sync.Mutex
	write      WriteStats
	shardTiers map[int][]int // shard → levels of its current chain
}

// treasurySupply is the genesis allocation the faucet draws from.
const treasurySupply = 1 << 40

// NewCluster boots a deployment: peers join the DHT, bees register and
// stake, and the genesis block allocates the faucet treasury.
func NewCluster(cfg Config) *Cluster {
	if cfg.NumPeers <= 0 {
		cfg.NumPeers = 8
	}
	if cfg.NumShards <= 0 {
		cfg.NumShards = 8
	}
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 5 * time.Second
	}
	if cfg.SegCacheBytes <= 0 {
		cfg.SegCacheBytes = DefaultSegCacheBytes
	}
	if cfg.ChainCacheBytes <= 0 {
		cfg.ChainCacheBytes = DefaultChainCacheBytes
	}
	cfg.Net.Seed = cfg.Seed + 1

	c := &Cluster{
		cfg:        cfg,
		Clock:      vclock.New(time.Time{}),
		Net:        netsim.New(cfg.Net),
		treasury:   chain.NewNamedAccount(cfg.Seed, "treasury"),
		nonces:     make(map[chain.Address]uint64),
		rng:        xrand.New(cfg.Seed),
		shardTiers: make(map[int][]int),
	}
	c.Chain = chain.New(c.Clock, map[chain.Address]uint64{
		c.treasury.Address(): treasurySupply,
	})
	c.QB = contracts.New(cfg.Contract)
	c.Chain.RegisterContract(c.QB, true)

	// DWeb peers.
	for i := 0; i < cfg.NumPeers; i++ {
		addr := netsim.NodeID(fmt.Sprintf("peer-%03d", i))
		d := dht.NewNode(c.Net, addr, cfg.DHT)
		c.Peers = append(c.Peers, store.NewPeer(c.Net, d, cfg.Peer))
	}
	c.bootstrapDHT()

	// Worker bees: each is a DWeb peer plus a funded, staked account.
	for i := 0; i < cfg.NumBees; i++ {
		c.AddBee(fmt.Sprintf("bee-%03d", i))
	}
	c.Seal()
	return c
}

// bootstrapDHT joins every peer through the first one.
func (c *Cluster) bootstrapDHT() {
	if len(c.Peers) == 0 {
		return
	}
	seed := c.Peers[0].DHT().Self()
	for _, p := range c.Peers[1:] {
		c.bootCost = c.bootCost.Seq(p.DHT().Bootstrap([]dht.Contact{seed}))
	}
	for _, p := range c.Peers {
		c.bootCost = c.bootCost.Seq(p.DHT().Bootstrap([]dht.Contact{seed}))
	}
}

// BootCost reports the accumulated DHT join traffic paid to assemble the
// deployment: the initial bootstrap rounds plus every AddBee join since.
// Setup traffic is accounted here rather than on per-query receipts.
func (c *Cluster) BootCost() netsim.Cost { return c.bootCost }

// AddBee creates, funds, stakes and registers a new worker bee. The bee
// is active after the next Seal.
func (c *Cluster) AddBee(name string) *WorkerBee {
	addr := netsim.NodeID(name)
	d := dht.NewNode(c.Net, addr, c.cfg.DHT)
	peer := store.NewPeer(c.Net, d, c.cfg.Peer)
	if len(c.Peers) > 0 {
		c.bootCost = c.bootCost.Seq(d.Bootstrap([]dht.Contact{c.Peers[0].DHT().Self()}))
	}
	acct := chain.NewNamedAccount(c.cfg.Seed, "bee:"+name)
	stake := c.cfg.Contract.MinStake
	if stake == 0 {
		stake = 100
	}
	c.Fund(acct.Address(), stake*10)
	bee := &WorkerBee{
		cluster: c,
		Name:    name,
		Account: acct,
		Peer:    peer,
		pending: make(map[string]pendingResult),
	}
	c.Bees = append(c.Bees, bee)
	c.SubmitCall(acct, contracts.MethodRegisterWorker, nil, stake)
	return bee
}

// NewAccount creates and funds an externally owned account (publisher,
// advertiser, clicker). Funds are spendable after the next Seal.
func (c *Cluster) NewAccount(name string, funds uint64) *chain.Account {
	acct := chain.NewNamedAccount(c.cfg.Seed, "acct:"+name)
	c.Fund(acct.Address(), funds)
	return acct
}

// Fund transfers honey from the treasury (applied at next Seal).
func (c *Cluster) Fund(to chain.Address, amount uint64) {
	tx := chain.NewTransfer(c.treasury, c.nonce(c.treasury.Address()), to, amount)
	if err := c.Chain.Submit(tx); err != nil {
		panic(fmt.Sprintf("core: faucet submit: %v", err))
	}
}

// SubmitCall signs and submits a QueenBee contract call with automatic
// nonce management. The call executes at the next Seal.
func (c *Cluster) SubmitCall(from *chain.Account, method string, params any, value uint64) *chain.Tx {
	tx := chain.NewCall(from, c.nonce(from.Address()), contracts.ContractName, method, params, value)
	if err := c.Chain.Submit(tx); err != nil {
		panic(fmt.Sprintf("core: submit %s: %v", method, err))
	}
	return tx
}

func (c *Cluster) nonce(a chain.Address) uint64 {
	n := c.nonces[a]
	c.nonces[a] = n + 1
	return n
}

// Seal advances simulated time by one block interval and seals a block.
// If a fault plan is attached, its due events fire here — churn lands at
// block boundaries, which is where the simulated world moves.
func (c *Cluster) Seal() *chain.Block {
	c.Clock.Advance(c.cfg.BlockInterval)
	b := c.Chain.Seal()
	if c.faultPlan != nil {
		c.faultPlan.Advance(c.Clock.Since(c.faultEpoch), c.Net)
	}
	return b
}

// SetFaultPlan attaches a churn schedule — crashes, recoveries,
// partitions, lossy-link episodes — whose event times are measured from
// now on the cluster's simulated clock; due events fire on each
// subsequent Seal, so "50% of peers crash mid-round" is a replayable
// schedule.
func (c *Cluster) SetFaultPlan(p *netsim.FaultPlan) {
	c.faultPlan = p
	c.faultEpoch = c.Clock.Now()
}

// FaultPlan returns the attached churn schedule, if any.
func (c *Cluster) FaultPlan() *netsim.FaultPlan { return c.faultPlan }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// RandomPeer returns a pseudo-random DWeb peer.
func (c *Cluster) RandomPeer() *store.Peer {
	return c.Peers[c.rng.Intn(len(c.Peers))]
}

// ProcessRound drives one full protocol round:
//
//  1. every bee fetches its open tasks' inputs and computes results —
//     the network work runs in bee order, each distinct build starts on
//     a goroutine beside the fetches after it and the assignees that
//     fetched the same bytes share it — and commits, in bee order;
//  2. a block seals the commits;
//  3. every bee reveals; the last reveal of each task auto-finalizes it
//     (an index task's finalization advances IndexGen and IndexStats);
//  4. a block seals the reveals;
//  5. winning bees materialize finalized results into the DHT as one
//     batch: a segment-write wave, then one pointer read-modify-write
//     per touched shard (see round.go).
//
// It returns the number of tasks materialized during the round.
func (c *Cluster) ProcessRound() int {
	return c.ProcessRoundReceipt().Materialized
}

// ProcessRoundReceipt is ProcessRound with the full accounting: wave
// vs serial costs, mutable-DHT write counters, and the round's error
// summary.
func (c *Cluster) ProcessRoundReceipt() RoundReceipt {
	var r RoundReceipt
	c.commitWave(&r)
	c.Seal()
	for _, bee := range c.Bees {
		bee.RevealPhase()
	}
	c.Seal()
	c.materializePass(&r)
	// Janitor: anyone may finalize a task whose reveal window closed
	// (slashing non-revealers); the treasury plays that role here so
	// stuck tasks always resolve to finalized-or-failed.
	if stuck := c.QB.OpenTasksPastDeadline(c.Chain.Height()); len(stuck) > 0 {
		for _, id := range stuck {
			c.SubmitCall(c.treasury, contracts.MethodFinalize, contracts.FinalizeParams{TaskID: id}, 0)
		}
		c.Seal()
		c.materializePass(&r)
	}
	// Self-healing: with Maintenance on, every round ends with a repair
	// pass, so churn damage is bounded by one round's exposure.
	if c.cfg.Maintenance {
		c.RunMaintenance()
	}
	c.noteRoundReceipt(r)
	return r
}

// RunUntilIdle processes rounds until no open tasks remain (bounded by
// maxRounds). Returns rounds executed.
func (c *Cluster) RunUntilIdle(maxRounds int) int {
	for round := 1; round <= maxRounds; round++ {
		c.ProcessRound()
		if open, _, _ := c.QB.TaskCounts(); open == 0 {
			return round
		}
	}
	return maxRounds
}

// StartRankEpoch creates the rank tasks for the current link graph,
// partitioned across the given number of rank tasks, and returns the
// epoch number. Drive with ProcessRound until idle, then ranks are
// finalized on chain.
func (c *Cluster) StartRankEpoch(partitions int) uint64 {
	c.nextRankEpoch++
	epoch := c.nextRankEpoch
	c.SubmitCall(c.treasuryAccount(), contracts.MethodCreateRankEpoch,
		contracts.CreateRankEpochParams{Epoch: epoch, Partitions: partitions}, 0)
	c.Seal()
	return epoch
}

// StartRankEpochDelta starts a rank epoch on the incremental schedule:
// a delta epoch (bees re-walk only the subgraph reachable from pages
// dirtied since the last epoch, warm-started from the finalized vector)
// unless exactness is due — the first epoch ever, or every
// RankFullEvery'th epoch, runs a full recompute so the frozen-subgraph
// approximation's drift is periodically reset to zero. Epochs started
// here must be driven to finalization (RunUntilIdle) before the next
// one starts: a delta epoch's inputs are the finalized vector and the
// dirty snapshot taken at creation.
func (c *Cluster) StartRankEpochDelta(partitions int) uint64 {
	c.nextRankEpoch++
	epoch := c.nextRankEpoch
	delta := c.QB.LatestRankEpoch() > 0
	every := c.cfg.RankFullEvery
	if every == 0 {
		every = DefaultRankFullEvery
	}
	if every > 0 && epoch%uint64(every) == 0 {
		delta = false
	}
	c.SubmitCall(c.treasuryAccount(), contracts.MethodCreateRankEpoch,
		contracts.CreateRankEpochParams{Epoch: epoch, Partitions: partitions, Delta: delta}, 0)
	c.Seal()
	return epoch
}

// DefaultRankFullEvery is the exactness cadence Config.RankFullEvery=0
// selects: every 4th epoch on the delta schedule is a full recompute.
const DefaultRankFullEvery = 4

// PayPopularity triggers the threshold reward for a finalized epoch.
func (c *Cluster) PayPopularity(epoch uint64) *chain.Tx {
	tx := c.SubmitCall(c.treasuryAccount(), contracts.MethodPayPopularity,
		contracts.PayPopularityParams{Epoch: epoch}, 0)
	c.Seal()
	return tx
}

func (c *Cluster) treasuryAccount() *chain.Account { return c.treasury }

// FailPeers marks a fraction of the plain DWeb peers (never bees) as
// crashed and returns the failed addresses. Deterministic per cluster
// seed.
func (c *Cluster) FailPeers(fraction float64) []netsim.NodeID {
	n := int(fraction * float64(len(c.Peers)))
	var failed []netsim.NodeID
	for _, idx := range c.rng.Sample(len(c.Peers), n) {
		addr := c.Peers[idx].Addr()
		c.Net.SetDown(addr, true)
		failed = append(failed, addr)
	}
	return failed
}

// HealPeers brings previously failed peers back.
func (c *Cluster) HealPeers(addrs []netsim.NodeID) {
	for _, a := range addrs {
		c.Net.SetDown(a, false)
	}
}

// RefreshDHT makes every live node re-replicate its DHT records to the
// current k closest peers — the periodic republish real Kademlia
// deployments run, compressed into one call for churn experiments.
func (c *Cluster) RefreshDHT() netsim.Cost {
	var total netsim.Cost
	for _, p := range c.Peers {
		if c.Net.IsDown(p.Addr()) {
			continue
		}
		total = total.Seq(p.DHT().Refresh())
	}
	for _, b := range c.Bees {
		if c.Net.IsDown(b.Peer.Addr()) {
			continue
		}
		total = total.Seq(b.Peer.DHT().Refresh())
	}
	return total
}
