// Package contracts implements "QueenBee's smart contract": the on-chain
// business logic the paper sketches in Figure 1. One contract (as in the
// paper, which speaks of publishing "via QueenBee's smart contract")
// covers five method areas:
//
//   - publish:  content creators register page versions (no crawling —
//     index maintenance is driven by these publish events);
//   - workers:  worker bees stake honey to join the indexing/ranking pool;
//   - tasks:    index and page-rank work is assigned to a pseudo-random
//     quorum of bees, verified by commit–reveal majority voting,
//     rewarded with minted honey, with dissenters slashed (the
//     defense evaluated against the collusion attack, E11);
//   - ads:      advertisers escrow budgets and pay per click, with revenue
//     shared between content creators and the worker pool;
//   - rewards:  providers whose page rank exceeds a threshold earn
//     popularity honey (the paper's fair-incentive sketch).
package contracts

import (
	"fmt"
	"sync"

	"repro/internal/chain"
)

// ContractName is the registration key for the QueenBee contract.
const ContractName = "queenbee"

// Method names.
const (
	MethodPublishBatch     = "publish-batch"
	MethodRegisterWorker   = "register-worker"
	MethodDeregisterWorker = "deregister-worker"
	MethodCommit           = "commit"
	MethodReveal           = "reveal"
	MethodFinalize         = "finalize"
	MethodCreateRankEpoch  = "create-rank-epoch"
	MethodPayPopularity    = "pay-popularity"
	MethodRegisterAd       = "register-ad"
	MethodTopUpAd          = "top-up-ad"
	MethodClick            = "click"
	MethodImpression       = "impression"
)

// The protocol's economic constants: every bee, provider and advertiser
// runs the same contract, so these are its rules, not a deployment's
// settings.
const (
	// MinStake is the stake required to register as a worker.
	MinStake uint64 = 100
	// taskReward is the honey minted to each worker in the winning
	// majority of a finalized task.
	taskReward uint64 = 10
	// slashAmount is the stake burned from a worker that reveals a
	// minority digest or misses the reveal deadline.
	slashAmount uint64 = 50
	// commitBlocks and revealBlocks are phase lengths in blocks; after
	// CreatedAt+commitBlocks+revealBlocks anyone may finalize.
	commitBlocks uint64 = 2
	revealBlocks uint64 = 2
	// creatorShareBP is the content creator's share of each ad click in
	// basis points (60 %); the remainder goes to the worker pool.
	creatorShareBP uint64 = 6000
	// popularityReward is the honey minted per popular page per epoch.
	popularityReward uint64 = 100
)

// Config tunes the QueenBee economy.
type Config struct {
	// Quorum is the number of worker bees assigned to each task; majority
	// of reveals decides the canonical result.
	Quorum int
	// PopularityThreshold is the page-rank value above which a provider
	// earns popularityReward each epoch.
	PopularityThreshold float64
	// StakeWeightedQuorum selects task assignees with probability
	// proportional to stake instead of uniformly. It makes quorum seats
	// cost capital: an attacker splitting one stake across many Sybil
	// identities gains no extra seats.
	StakeWeightedQuorum bool
}

// DefaultConfig returns the simulation defaults.
func DefaultConfig() Config {
	return Config{
		Quorum:              3,
		PopularityThreshold: 0.01,
	}
}

// QueenBee is the contract state. All mutation happens inside Execute
// (under the chain's sealer); reads from the engine take the read lock.
type QueenBee struct {
	mu  sync.RWMutex
	cfg Config

	pages      map[string]*PageRecord
	workers    map[chain.Address]*Worker
	workerList []chain.Address // registration order, for deterministic quorums
	tasks      map[string]*Task
	taskOrder  []string
	ads        map[uint64]*Ad
	nextAdID   uint64

	rankEpochs map[uint64]*RankEpoch
	pageRanks  map[string]float64 // latest finalized ranks
	rankEpoch  uint64             // latest finalized epoch
	rankGen    uint64             // bumped on every pageRanks mutation (RankGen)
	indexGen   uint64             // bumped on every finalized index task (IndexGen)
	indexStats IndexStats         // first-version docs/tokens of finalized index tasks
	dirtyPages map[string]bool    // pages touched since the last epoch snapshot
	fullEpoch  uint64             // latest finalized full (non-delta) epoch

	paidPopularity map[string]bool // "epoch:url" → paid

	// dust is click revenue that could not be split evenly and remains in
	// escrow; tracked so the escrow invariant is exact.
	dust uint64
}

// New creates the contract.
func New(cfg Config) *QueenBee {
	if cfg.Quorum <= 0 {
		cfg.Quorum = 3
	}
	return &QueenBee{
		cfg:            cfg,
		pages:          make(map[string]*PageRecord),
		workers:        make(map[chain.Address]*Worker),
		tasks:          make(map[string]*Task),
		ads:            make(map[uint64]*Ad),
		rankEpochs:     make(map[uint64]*RankEpoch),
		pageRanks:      make(map[string]float64),
		dirtyPages:     make(map[string]bool),
		paidPopularity: make(map[string]bool),
	}
}

// Name implements chain.Contract.
func (q *QueenBee) Name() string { return ContractName }

// Execute implements chain.Contract.
func (q *QueenBee) Execute(ctx *chain.TxContext, method string, params []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch method {
	case MethodPublishBatch:
		return q.execPublishBatch(ctx, params)
	case MethodRegisterWorker:
		return q.execRegisterWorker(ctx, params)
	case MethodDeregisterWorker:
		return q.execDeregisterWorker(ctx, params)
	case MethodCommit:
		return q.execCommit(ctx, params)
	case MethodReveal:
		return q.execReveal(ctx, params)
	case MethodFinalize:
		return q.execFinalize(ctx, params)
	case MethodCreateRankEpoch:
		return q.execCreateRankEpoch(ctx, params)
	case MethodPayPopularity:
		return q.execPayPopularity(ctx, params)
	case MethodRegisterAd:
		return q.execRegisterAd(ctx, params)
	case MethodTopUpAd:
		return q.execTopUpAd(ctx, params)
	case MethodClick:
		return q.execClick(ctx, params)
	case MethodImpression:
		return q.execImpression(ctx, params)
	default:
		return fmt.Errorf("queenbee: unknown method %q", method)
	}
}

// EscrowBreakdown reports how the contract's escrow decomposes; the sum
// must equal the on-chain escrow balance (invariant-tested).
type EscrowBreakdown struct {
	Stakes    uint64
	AdBudgets uint64
	Dust      uint64
}

// Escrow returns the current breakdown of escrowed honey.
func (q *QueenBee) Escrow() EscrowBreakdown {
	q.mu.RLock()
	defer q.mu.RUnlock()
	var b EscrowBreakdown
	for _, w := range q.workers {
		b.Stakes += w.Stake
	}
	for _, ad := range q.ads {
		b.AdBudgets += ad.Budget
	}
	b.Dust = q.dust
	return b
}
