package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/rank"
	"repro/internal/store"
	"repro/internal/xrand"
)

// WorkerBee is one index/rank worker: a DWeb peer plus a staked chain
// account. Honest bees compute deterministic results so quorum digests
// agree; a bee with a CollusionPlan substitutes the plan's corrupted
// result instead (the E11 attack).
type WorkerBee struct {
	cluster *Cluster
	Name    string
	Account *chain.Account
	Peer    *store.Peer

	// Colluding marks this bee as part of the collusion attack.
	Colluding bool
	// DetectDuplicates enables the scraper defense: near-duplicate pages
	// get rank 0 in this bee's rank results.
	DetectDuplicates bool

	pending map[string]pendingResult // taskID → computed result awaiting reveal
	written map[string]bool          // taskID → materialized into DHT

	// Cost accumulates the simulated network expense of this bee's work.
	Cost netsim.Cost
	// Errs records the write-path failures this bee observed (segment
	// writes, shard appends, compaction) instead of swallowing
	// them; each round's slice is also surfaced on the RoundReceipt.
	Errs []RoundError
}

type pendingResult struct {
	result []byte
	digest string
	salt   []byte
	tokens uint64 // index tasks: revealed beside the digest (firstVersionTokens)
}

// prepareCommits computes results for newly assigned open tasks and
// returns the commitments to submit. It is the compute leg of the
// round engine's commit wave: one goroutine per bee may run it
// concurrently — it touches only this bee's own state (pending map,
// its DWeb peer) and read-locked contract views, never the chain. The
// cluster submits the returned commitments afterwards, sequentially in
// bee order, so transaction order stays deterministic. misses counts the
// page fetches whose on-chain provider could not serve.
func (b *WorkerBee) prepareCommits() (commits []contracts.CommitParams, cost netsim.Cost, misses int, errs []RoundError) {
	for _, task := range b.cluster.QB.OpenTasksFor(b.Account.Address()) {
		if _, done := b.pending[task.ID]; done {
			continue
		}
		var result []byte
		var tokens uint64
		var buildCost netsim.Cost
		var missed int
		var err error
		switch task.Kind {
		case contracts.TaskIndex:
			result, tokens, buildCost, missed, err = b.buildIndexResult(task)
			misses += missed
		case contracts.TaskRank:
			result, err = b.buildRankResult(task)
		}
		cost = cost.Seq(buildCost)
		if err != nil {
			errs = append(errs, RoundError{Bee: b.Name, Task: task.ID, Shard: -1, Stage: "build", Err: err})
			continue
		}
		digest := index.DigestOf(result)
		salt := make([]byte, 16)
		xrand.NewNamed(b.cluster.cfg.Seed, "salt:"+b.Name+":"+task.ID).Bytes(salt)
		b.pending[task.ID] = pendingResult{result: result, digest: digest, salt: salt, tokens: tokens}
		commits = append(commits, contracts.CommitParams{
			TaskID:     task.ID,
			Commitment: contracts.Commitment(digest, salt),
		})
	}
	return commits, cost, misses, errs
}

// RevealPhase opens this bee's commitments for tasks still open.
func (b *WorkerBee) RevealPhase() {
	for _, task := range b.cluster.QB.OpenTasksFor(b.Account.Address()) {
		pr, ok := b.pending[task.ID]
		if !ok {
			continue
		}
		if _, committed := task.Commitments[b.Account.Address()]; !committed {
			continue
		}
		if _, revealed := task.Reveals[b.Account.Address()]; revealed {
			continue
		}
		params := contracts.RevealParams{
			TaskID: task.ID,
			Digest: pr.digest,
			Salt:   pr.salt,
			Tokens: pr.tokens,
		}
		if task.Kind == contracts.TaskRank {
			params.Result = pr.result
		}
		b.cluster.SubmitCall(b.Account, contracts.MethodReveal, params, 0)
	}
}

// collectWins is the per-bee leg of the round engine's materialize
// wave: it scans this bee's pending tasks in sorted ID order (map
// iteration order must never reach the DHT — write order and netsim
// draws are part of the determinism contract), writes the immutable
// segment record for every finalized task this bee won as designated
// writer, and returns the shard contributions for the cluster's batched
// pointer update. Only the designated writer (first winning assignee)
// contributes, and only when its own digest won — a losing bee cannot
// materialize the honest result it computed. count is the number of
// tasks materialized (index segments written plus finalized rank tasks,
// whose results live on chain).
func (b *WorkerBee) collectWins() (contribs []contribution, count int, cost netsim.Cost, errs []RoundError) {
	taskIDs := make([]string, 0, len(b.pending))
	for taskID := range b.pending {
		if !b.written[taskID] {
			taskIDs = append(taskIDs, taskID)
		}
	}
	sort.Strings(taskIDs)
	for _, taskID := range taskIDs {
		pr := b.pending[taskID]
		task, ok := b.cluster.QB.TaskInfo(taskID)
		if !ok || task.Status != contracts.StatusFinalized {
			if ok && task.Status == contracts.StatusFailed {
				b.written[taskID] = true // never retried
			}
			continue
		}
		b.written[taskID] = true
		if !task.Won(b.Account.Address()) {
			continue // this bee lost the vote
		}
		if b.designatedWriter(task) != b.Account.Address() {
			continue
		}
		// Rank results live on chain (WinningResult); nothing to write.
		if task.Kind == contracts.TaskRank {
			count++
			continue
		}
		seg, err := index.DecodeSegment(pr.result)
		if err != nil {
			errs = append(errs, RoundError{Bee: b.Name, Task: taskID, Shard: -1, Stage: "decode", Err: err})
			continue
		}
		wcost, err := writeSegment(b.Peer.DHT(), pr.digest, pr.result)
		cost = cost.Seq(wcost)
		if err != nil {
			errs = append(errs, RoundError{Bee: b.Name, Task: taskID, Shard: -1, Stage: "segment-write", Err: err})
			continue
		}
		count++ // only a segment that actually landed counts as materialized
		contribs = append(contribs, contribution{
			bee:    b,
			taskID: taskID,
			digest: pr.digest,
			bytes:  len(pr.result),
			shards: b.shardsOf(seg),
		})
	}
	return contribs, count, cost, errs
}

// shardsOf lists, ascending, the shards a segment's terms hash to.
func (b *WorkerBee) shardsOf(seg *index.Segment) []int {
	shards := make(map[int]bool)
	for _, term := range seg.TermsSorted() {
		shards[index.ShardOf(term, b.cluster.cfg.NumShards)] = true
	}
	shardList := make([]int, 0, len(shards))
	for s := range shards {
		shardList = append(shardList, s)
	}
	sort.Ints(shardList)
	return shardList
}

// firstVersionTokens is the token count an index task's reveal carries:
// the analyzed lengths, in the segment this bee built, of the task's
// first-version pages. Re-published pages count once, at their first
// version; the contract counts the documents itself and adds the voted
// tokens to IndexStats at finalization.
func firstVersionTokens(task contracts.Task, seg *index.Segment) uint64 {
	var tokens uint64
	for _, url := range contracts.FirstVersionPages(task) {
		tokens += uint64(seg.DocLens[index.DocIDOf(url)])
	}
	return tokens
}

// designatedWriter picks the first winning assignee in sorted order.
func (b *WorkerBee) designatedWriter(task contracts.Task) chain.Address {
	var winners []chain.Address
	for _, a := range task.Assignees {
		if task.Won(a) {
			winners = append(winners, a)
		}
	}
	sort.Slice(winners, func(i, j int) bool { return winners[i].String() < winners[j].String() })
	if len(winners) == 0 {
		return chain.Address{}
	}
	return winners[0]
}

// buildIndexResult fetches the published content from the DWeb and
// builds the deterministic delta segment for the task's page version —
// or, for a batch task, for every page of the batch in one segment. The
// per-page fetches of a batch are independent downloads from (usually)
// distinct providers, so their cost folds as one parallel wave
// (execution stays sequential on this bee's goroutine, keeping the
// bee's per-link draw order seed-stable); across bees, the round engine
// runs the whole build as a real goroutine wave. Beside the encoded
// segment it returns the token count the reveal votes on and how many
// pages the provider named on chain could not serve.
func (b *WorkerBee) buildIndexResult(task contracts.Task) (result []byte, tokens uint64, cost netsim.Cost, misses int, err error) {
	var docs []index.BatchDoc
	fetch := func(url, cidHex, provider string) error {
		content, c, missed, err := b.fetchPage(url, cidHex, provider)
		cost = cost.Par(c)
		if missed {
			misses++
		}
		if err != nil {
			return err
		}
		docs = append(docs, index.BatchDoc{Doc: index.DocIDOf(url), Text: string(content)})
		return nil
	}
	if entries, isBatch := contracts.BatchEntries(task); isBatch {
		for _, e := range entries {
			if err := fetch(e.URL, e.CID, e.Provider); err != nil {
				return nil, 0, cost, misses, err
			}
		}
	} else if err := fetch(task.Meta["url"], task.Meta["cid"], task.Meta["provider"]); err != nil {
		return nil, 0, cost, misses, err
	}
	gen := task.CreatedAt // same for every assignee → deterministic
	seg := index.BuildBatch(gen, docs)
	if b.Colluding {
		seg = b.corruptSegment(seg)
	}
	return seg.Encode(), firstVersionTokens(task, seg), cost, misses, nil
}

// fetchPage resolves one page version's content from the DWeb store,
// asking the provider the publish named first (see store.Peer.FetchHinted).
func (b *WorkerBee) fetchPage(url, cidHex, provider string) ([]byte, netsim.Cost, bool, error) {
	cid, err := cidFromHex(cidHex)
	if err != nil {
		return nil, netsim.Cost{}, false, fmt.Errorf("page %q: %w", url, err)
	}
	content, cost, missed, err := b.Peer.FetchHinted(cid, netsim.NodeID(provider))
	if err != nil {
		return nil, cost, missed, fmt.Errorf("page %q: %w", url, err)
	}
	return content, cost, missed, nil
}

// corruptSegment produces the colluders' agreed-upon wrong result: the
// page's postings are replaced with spam terms pointing at the attacker's
// URL. Deterministic across colluders (keyed by task, not bee).
func (b *WorkerBee) corruptSegment(honest *index.Segment) *index.Segment {
	builder := index.NewBuilder(honest.Gen)
	builder.Add(index.DocIDOf("dweb://attacker/spam"),
		strings.Repeat("buy spam honey now ", 8))
	return builder.Build()
}

// buildRankResult computes the page-rank partition for a rank task. The
// link graph comes from chain state, so every honest bee computes the
// same result bytes.
func (b *WorkerBee) buildRankResult(task contracts.Task) ([]byte, error) {
	partition, err := strconv.Atoi(task.Meta["partition"])
	if err != nil {
		return nil, fmt.Errorf("task %q: bad partition: %w", task.ID, err)
	}
	epoch, err := strconv.ParseUint(task.Meta["epoch"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("task %q: bad epoch: %w", task.ID, err)
	}
	re, ok := b.cluster.QB.RankEpochInfo(epoch)
	if !ok {
		return nil, fmt.Errorf("task %q: unknown rank epoch %d", task.ID, epoch)
	}
	g := rank.NewGraph(b.cluster.QB.LinkGraph())
	var res rank.Result
	if re.Delta {
		res = b.deltaRank(g, re)
	} else {
		res = rank.Compute(g, rank.DefaultOptions())
	}
	ranks := res.Ranks

	if b.DetectDuplicates {
		ranks = b.zeroDuplicates(g, ranks)
	}
	if b.Colluding {
		// Colluders inflate the attacker page and zero everyone else.
		for i := range ranks {
			ranks[i] = 0
		}
		if idx, ok := g.NodeOf("dweb://attacker/spam"); ok {
			ranks[idx] = 1
		}
	}

	parts := rank.Partition(g.Size(), re.Partitions)
	if partition >= len(parts) {
		return contracts.EncodeRankResult(nil), nil
	}
	lo, hi := parts[partition][0], parts[partition][1]
	entries := make([]contracts.RankEntry, 0, hi-lo)
	for i := lo; i < hi; i++ {
		entries = append(entries, contracts.RankEntry{URL: g.URL(i), Rank: ranks[i]})
	}
	return contracts.EncodeRankResult(entries), nil
}

// deltaRank runs the incremental rank pass for a delta epoch. Every
// input is finalized chain state — the link graph, the previous rank
// vector, and the epoch's dirty snapshot — so all quorum bees compute
// identical bytes. The dirty set is the snapshot's URLs mapped to graph
// nodes plus every node the previous vector has never ranked (pages
// published after the last epoch started); ComputeDelta sorts and
// deduplicates it.
func (b *WorkerBee) deltaRank(g *rank.Graph, re contracts.RankEpoch) rank.Result {
	prevMap := b.cluster.QB.PageRanks()
	if len(prevMap) == 0 {
		// Nothing to warm-start from: first epoch ever ran as delta.
		return rank.Compute(g, rank.DefaultOptions())
	}
	prev := make([]float64, g.Size())
	var dirty []int
	for i := 0; i < g.Size(); i++ {
		r, ok := prevMap[g.URL(i)]
		if !ok {
			dirty = append(dirty, i)
			continue
		}
		prev[i] = r
	}
	for _, u := range re.Dirty {
		if idx, ok := g.NodeOf(u); ok {
			dirty = append(dirty, idx)
		}
	}
	return rank.ComputeDelta(g, prev, dirty, rank.DefaultOptions())
}
