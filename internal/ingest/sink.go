package ingest

import (
	"repro/internal/chain"
	"repro/internal/core"
)

// Sink indexes one batch of pages and reports the round it drove. Crawl
// calls it on the caller's goroutine, strictly in batch order, so a
// cluster-backed sink sees the identical call sequence a sequential
// PublishBatch loop would issue (the byte-identical-state contract in
// docs/ingest.md rests on this).
type Sink interface {
	IndexBatch(pages []core.BatchPage) (core.RoundReceipt, error)
}

// RankDriver is the optional sink extension Options.RankEvery uses: a
// sink implementing it can run one page-rank epoch between batches.
// Called on the caller's goroutine like IndexBatch, strictly between
// batch flushes.
type RankDriver interface {
	RankEpoch(partitions int)
}

// clusterSink drives real cluster rounds.
type clusterSink struct {
	c     *core.Cluster
	owner *chain.Account
}

// NewClusterSink returns a Sink that publishes each batch through
// Cluster.IndexBatch on behalf of owner.
func NewClusterSink(c *core.Cluster, owner *chain.Account) Sink {
	return clusterSink{c: c, owner: owner}
}

func (s clusterSink) IndexBatch(pages []core.BatchPage) (core.RoundReceipt, error) {
	return s.c.IndexBatch(s.owner, pages)
}

// RankEpoch implements RankDriver: one delta-scheduled rank epoch,
// driven to finalization before the next batch flushes (delta epochs
// warm-start from the previous finalized vector, so they must not
// overlap).
func (s clusterSink) RankEpoch(partitions int) {
	s.c.StartRankEpochDelta(partitions)
	s.c.RunUntilIdle(50)
}
