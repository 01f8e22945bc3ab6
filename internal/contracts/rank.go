package contracts

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/chain"
)

// RankEpoch tracks one distributed page-rank computation: the link graph
// is split into partitions, each verified by its own quorum task; the
// epoch finalizes when every partition task has finalized.
//
// A Delta epoch carries the on-chain dirty snapshot: the sorted URLs
// published (new pages or new versions) since the previous epoch's
// snapshot. Every assignee computes the same delta from the same inputs
// — the finalized rank vector plus this snapshot — so quorum digests
// still agree; the rank-epoch contract in the package doc of the root
// module (doc.go) states the exactness terms.
type RankEpoch struct {
	Epoch      uint64
	Partitions int
	Finalized  int
	Done       bool

	// Delta marks an incremental epoch; Dirty is its snapshot, sorted so
	// every bee iterates it identically (never map order).
	Delta bool
	Dirty []string
}

// RankEntry is one page's rank inside a rank-task result. Results are
// JSON-encoded slices sorted by URL so digests are deterministic.
type RankEntry struct {
	URL  string
	Rank float64
}

// EncodeRankResult serializes rank entries for reveal payloads.
func EncodeRankResult(entries []RankEntry) []byte {
	b, err := json.Marshal(entries)
	if err != nil {
		panic(fmt.Sprintf("contracts: encoding rank result: %v", err))
	}
	return b
}

// DecodeRankResult parses a rank-task result.
func DecodeRankResult(data []byte) ([]RankEntry, error) {
	var out []RankEntry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("contracts: decoding rank result: %w", err)
	}
	return out, nil
}

// CreateRankEpochParams opens the rank tasks for one epoch. Delta asks
// for an incremental epoch: the contract snapshots the pages dirtied
// since the last epoch into the epoch record and the assignees re-walk
// only the subgraph reachable from them.
type CreateRankEpochParams struct {
	Epoch      uint64
	Partitions int
	Delta      bool
}

// RankTaskID names the task for one partition of one epoch.
func RankTaskID(epoch uint64, partition int) string {
	return fmt.Sprintf("rank:%d:%d", epoch, partition)
}

func (q *QueenBee) execCreateRankEpoch(ctx *chain.TxContext, params []byte) error {
	var p CreateRankEpochParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	if p.Partitions <= 0 {
		return fmt.Errorf("queenbee: rank epoch needs >= 1 partition")
	}
	if _, dup := q.rankEpochs[p.Epoch]; dup {
		return fmt.Errorf("queenbee: rank epoch %d already exists", p.Epoch)
	}
	re := &RankEpoch{Epoch: p.Epoch, Partitions: p.Partitions, Delta: p.Delta}
	if p.Delta {
		re.Dirty = slices.Sorted(maps.Keys(q.dirtyPages))
	}
	// Full or delta, this epoch covers the graph as of now: reset the
	// dirty set so the next delta snapshot is relative to this epoch. (An
	// epoch that later fails to finalize under-counts staleness — the
	// escape-hatch full recompute bounds the damage.)
	q.dirtyPages = make(map[string]bool)
	q.rankEpochs[p.Epoch] = re
	for part := 0; part < p.Partitions; part++ {
		q.createTaskLocked(ctx, Task{ID: RankTaskID(p.Epoch, part), Kind: TaskRank, Epoch: p.Epoch, Partition: part})
	}
	ctx.Emit(EventRankEpochCreated, map[string]string{
		"epoch":      strconv.FormatUint(p.Epoch, 10),
		"partitions": strconv.Itoa(p.Partitions),
	})
	return nil
}

// onRankTaskFinalizedLocked merges a finalized partition's rank values and
// closes the epoch when all partitions are in.
func (q *QueenBee) onRankTaskFinalizedLocked(ctx *chain.TxContext, t *Task) {
	re, ok := q.rankEpochs[t.Epoch]
	if !ok || re.Done {
		return
	}
	entries, err := DecodeRankResult(t.WinningResult)
	if err != nil {
		return
	}
	for _, e := range entries {
		q.pageRanks[e.URL] = e.Rank
	}
	if len(entries) > 0 {
		q.rankGen++
	}
	re.Finalized++
	if re.Finalized >= re.Partitions {
		re.Done = true
		if t.Epoch > q.rankEpoch {
			q.rankEpoch = t.Epoch
		}
		if !re.Delta && t.Epoch > q.fullEpoch {
			q.fullEpoch = t.Epoch
		}
		ctx.Emit(EventRankEpochFinalized, map[string]string{
			"epoch": strconv.FormatUint(t.Epoch, 10),
		})
	}
}

// RankStaleness is the freshness summary serving surfaces report: the
// latest finalized epoch, the latest finalized FULL epoch (the last
// time the vector was exact rather than delta-approximated), how many
// epochs of drift have accumulated since, and how many pages have been
// dirtied since the last epoch snapshot (i.e. are not yet covered by
// any epoch).
type RankStaleness struct {
	Epoch           uint64 `json:"epoch"`
	LastFull        uint64 `json:"last_full_epoch"`
	DeltasSinceFull int    `json:"deltas_since_full"`
	DirtyPages      int    `json:"dirty_pages"`
}

// RankStaleness returns the current freshness summary. Safe for
// concurrent use; queenbeed serves it in the /stats write-path block.
func (q *QueenBee) RankStaleness() RankStaleness {
	q.mu.RLock()
	defer q.mu.RUnlock()
	st := RankStaleness{
		Epoch:      q.rankEpoch,
		LastFull:   q.fullEpoch,
		DirtyPages: len(q.dirtyPages),
	}
	for e, re := range q.rankEpochs {
		if re.Done && re.Delta && e > q.fullEpoch {
			st.DeltasSinceFull++
		}
	}
	return st
}

// PageRank returns a page's latest finalized rank (0 if unranked).
func (q *QueenBee) PageRank(url string) float64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.pageRanks[url]
}

// PageRanks returns a copy of the latest finalized rank vector.
func (q *QueenBee) PageRanks() map[string]float64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	out := make(map[string]float64, len(q.pageRanks))
	for k, v := range q.pageRanks {
		out[k] = v
	}
	return out
}

// RankGen returns a generation counter that advances whenever the rank
// vector changes (any finalized partition that merged entries). Readers
// that derive values from PageRanks — e.g. the frontend's memoized
// maxRank — key their caches on it instead of rescanning the vector on
// every query.
func (q *QueenBee) RankGen() uint64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.rankGen
}

// LatestRankEpoch returns the newest finalized epoch (0 if none).
func (q *QueenBee) LatestRankEpoch() uint64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.rankEpoch
}

// RankEpochInfo returns a copy of one epoch's progress.
func (q *QueenBee) RankEpochInfo(epoch uint64) (RankEpoch, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	re, ok := q.rankEpochs[epoch]
	if !ok {
		return RankEpoch{}, false
	}
	return *re, true
}

// PayPopularityParams mints the threshold reward for one finalized epoch.
type PayPopularityParams struct {
	Epoch uint64
}

// execPayPopularity implements the paper's incentive sketch: "give the
// providers for which the page ranks of their websites exceed a certain
// threshold some QueenBee's honey." Each page pays at most once per epoch.
func (q *QueenBee) execPayPopularity(ctx *chain.TxContext, params []byte) error {
	var p PayPopularityParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	re, ok := q.rankEpochs[p.Epoch]
	if !ok || !re.Done {
		return fmt.Errorf("queenbee: rank epoch %d not finalized", p.Epoch)
	}
	paid := 0
	for _, url := range slices.Sorted(maps.Keys(q.pageRanks)) {
		rank := q.pageRanks[url]
		if rank < q.cfg.PopularityThreshold {
			continue
		}
		key := fmt.Sprintf("%d:%s", p.Epoch, url)
		if q.paidPopularity[key] {
			continue
		}
		rec, ok := q.pages[url]
		if !ok {
			continue
		}
		if err := ctx.Mint(rec.Owner, popularityReward); err != nil {
			return err
		}
		q.paidPopularity[key] = true
		paid++
		ctx.Emit(EventPopularityPaid, map[string]string{
			"url":    url,
			"owner":  rec.Owner.String(),
			"amount": strconv.FormatUint(popularityReward, 10),
			"epoch":  strconv.FormatUint(p.Epoch, 10),
		})
	}
	if paid == 0 {
		return fmt.Errorf("queenbee: no unpaid pages above threshold in epoch %d", p.Epoch)
	}
	return nil
}
