package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/fanout"
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

	pending map[string]pendingResult // taskID → computed result awaiting its vote

	// Cost accumulates the simulated network expense of this bee's work.
	Cost netsim.Cost
	// Errs records the write-path failures this bee observed (segment
	// writes, shard appends, compaction) instead of swallowing
	// them; each round's slice is also surfaced on the RoundReceipt.
	Errs []RoundError
}

type pendingResult struct {
	seg    *index.Segment // index tasks: the segment result encodes
	shards []int          // index tasks: the shards seg lands on (shardsOf)
	result []byte
	digest string
	salt   []byte
	tokens uint64 // index tasks: revealed beside the digest (firstVersionTokens)
}

// commitJob is one newly assigned open task on its way to a commitment:
// its build, which it may share with the other assignees (buildSet).
type commitJob struct {
	taskID string
	out    *fanout.Job[built] // nil when err is set
	layer  func(built) built  // what this bee commits in place of out, if anything
	err    error              // reading the task's inputs failed
}

// fetchCommits is the network leg of this bee's commit: for every newly
// assigned open task, in task order, it fetches what the build needs and
// hands the rest of the build, which sends no RPC and reads no mutable
// state, to builds under the key of what it read. A colluding bee layers
// its corrupt segment on the honest build. Beside the jobs it returns the
// serve-cache announcements of the pages it fetched, in fetch order, the
// fetch cost (task after task), and how many page fetches the provider
// named on chain could not serve.
func (b *WorkerBee) fetchCommits(builds *buildSet) (jobs []commitJob, anns []store.Announcement, cost netsim.Cost, misses int) {
	for _, task := range b.cluster.QB.OpenTasksFor(b.Account.Address()) {
		if _, done := b.pending[task.ID]; done {
			continue
		}
		job := commitJob{taskID: task.ID}
		var key buildKey
		var build func() built
		var fetched []store.Announcement
		switch task.Kind {
		case contracts.TaskIndex:
			var fetchCost netsim.Cost
			var missed int
			key, build, fetched, fetchCost, missed, job.err = b.fetchIndexTask(task)
			cost = cost.Seq(fetchCost)
			misses += missed
			if b.Colluding {
				numShards := b.cluster.cfg.NumShards
				job.layer = func(honest built) built { return indexBuilt(task, corruptSegment(honest.seg), numShards) }
			}
		case contracts.TaskRank:
			key, build, fetched, job.err = b.rankBuild(task)
		}
		if job.err == nil {
			job.out = builds.share(key, build)
		}
		anns = append(anns, fetched...)
		jobs = append(jobs, job)
	}
	return jobs, anns, cost, misses
}

// submitCommits records each built result as pending and submits its
// commitment, in task order, waiting for each job's build; a job whose
// inputs could not be read is a "build" error on the bee and on the
// receipt instead.
func (b *WorkerBee) submitCommits(jobs []commitJob, r *RoundReceipt) {
	for _, j := range jobs {
		if j.err != nil {
			e := RoundError{Bee: b.Name, Task: j.taskID, Shard: -1, Stage: "build", Err: j.err}
			b.Errs = append(b.Errs, e)
			r.Errors = append(r.Errors, e)
			continue
		}
		out := *j.out.Wait()
		if j.layer != nil {
			out = j.layer(out)
		}
		salt := make([]byte, 16)
		xrand.NewNamed(b.cluster.cfg.Seed, "salt:"+b.Name+":"+j.taskID).Bytes(salt)
		b.pending[j.taskID] = pendingResult{seg: out.seg, shards: out.shards, result: out.result, digest: out.digest, salt: salt, tokens: out.tokens}
		b.cluster.SubmitCall(b.Account, contracts.MethodCommit, contracts.CommitParams{
			TaskID:     j.taskID,
			Commitment: contracts.Commitment(out.digest, salt),
		}, 0)
	}
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
//
// A task leaves pending once it resolves — finalized (won or lost) or
// failed — so pending holds only results still awaiting their vote.
func (b *WorkerBee) collectWins() (contribs []contribution, count int, cost netsim.Cost, errs []RoundError) {
	taskIDs := make([]string, 0, len(b.pending))
	for taskID := range b.pending {
		taskIDs = append(taskIDs, taskID)
	}
	sort.Strings(taskIDs)
	for _, taskID := range taskIDs {
		pr := b.pending[taskID]
		task, ok := b.cluster.QB.TaskInfo(taskID)
		if !ok || task.Status != contracts.StatusFinalized {
			if ok && task.Status == contracts.StatusFailed {
				delete(b.pending, taskID) // never retried
			}
			continue
		}
		delete(b.pending, taskID)
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
		// The result is the quorum's shared build (buildSet): the record
		// the network keeps gets bytes of its own.
		wcost, err := writeSegment(b.Peer.DHT(), pr.digest, bytes.Clone(pr.result))
		cost = cost.Seq(wcost)
		if err != nil {
			errs = append(errs, RoundError{Bee: b.Name, Task: taskID, Shard: -1, Stage: "segment-write", Err: err})
			continue
		}
		count++ // only a segment that actually landed counts as materialized
		contribs = append(contribs, contribution{
			bee:    b,
			taskID: taskID,
			seg:    pr.seg,
			digest: pr.digest,
			bytes:  len(pr.result),
			shards: pr.shards,
		})
	}
	return contribs, count, cost, errs
}

// shardsOf lists, ascending, the shards an index task's segment lands
// on: those its terms hash to, or every shard when the task re-registers
// a URL. A republished page's old postings sit on the shards its old text
// hashed to, and only a newer run's DocLens entry there tombstones them.
func shardsOf(task contracts.Task, seg *index.Segment, numShards int) []int {
	if len(contracts.FirstVersionPages(task)) < len(task.Pages) {
		all := make([]int, numShards)
		for s := range all {
			all[s] = s
		}
		return all
	}
	shards := make(map[int]bool)
	for _, term := range seg.TermsSorted() {
		shards[index.ShardOf(term, numShards)] = true
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

// fetchIndexTask fetches from the DWeb the published content of every
// page version the task covers and returns the rest of the build, the
// deterministic delta segment over those pages, encoded, with the token
// count the reveal votes on; and the build's key, which names the task,
// its gen and every page's DocID with the bytes this bee fetched. The key
// covers the bytes, not the CIDs: a page read from local blocks is not
// re-verified (store.Peer.FetchHinted), so two assignees may hold
// different bytes under one CID. The per-page fetches are independent
// downloads from (usually) distinct providers, so their cost folds as one
// parallel wave; execution stays in page order, keeping the bee's
// per-link draw order seed-stable. Beside the build it returns the pages'
// serve-cache announcements (those fetched before a failing page too) and
// how many pages the provider named on chain could not serve.
func (b *WorkerBee) fetchIndexTask(task contracts.Task) (key buildKey, build func() built, anns []store.Announcement, cost netsim.Cost, misses int, err error) {
	var docs []index.BatchDoc
	k := newKeyHash("index", task.ID, strconv.FormatUint(task.CreatedAt, 10))
	for _, p := range task.Pages {
		content, c, missed, ann, err := b.fetchPage(p.URL, p.CID, p.Provider)
		cost = cost.Par(c)
		if missed {
			misses++
		}
		if ann != nil {
			anns = append(anns, *ann)
		}
		if err != nil {
			return key, nil, anns, cost, misses, err
		}
		doc := index.DocIDOf(p.URL)
		k.add(binary.BigEndian.AppendUint32(nil, uint32(doc)))
		k.add(content)
		docs = append(docs, index.BatchDoc{Doc: doc, Text: string(content)})
	}
	numShards := b.cluster.cfg.NumShards
	return k.sum(), func() built {
		return indexBuilt(task, index.BuildBatch(task.CreatedAt, docs), numShards) // same gen for every assignee → deterministic
	}, anns, cost, misses, nil
}

// indexBuilt encodes an index task's segment, counts the tokens its
// reveal carries and lists the shards it lands on.
func indexBuilt(task contracts.Task, seg *index.Segment, numShards int) built {
	result := seg.Encode()
	return built{seg: seg, shards: shardsOf(task, seg, numShards), result: result, digest: index.DigestOf(result), tokens: firstVersionTokens(task, seg)}
}

// fetchPage resolves one page version's content from the DWeb store,
// asking the provider the publish named first (see store.Peer.FetchHinted).
func (b *WorkerBee) fetchPage(url, cidHex, provider string) ([]byte, netsim.Cost, bool, *store.Announcement, error) {
	cid, err := cidFromHex(cidHex)
	if err != nil {
		return nil, netsim.Cost{}, false, nil, fmt.Errorf("page %q: %w", url, err)
	}
	content, cost, missed, ann, err := b.Peer.FetchHinted(cid, netsim.NodeID(provider))
	if err != nil {
		return nil, cost, missed, ann, fmt.Errorf("page %q: %w", url, err)
	}
	return content, cost, missed, ann, nil
}

// corruptSegment produces the colluders' agreed-upon wrong result: the
// page's postings are replaced with spam terms pointing at the attacker's
// URL. Deterministic across colluders (keyed by task, not bee).
func corruptSegment(honest *index.Segment) *index.Segment {
	builder := index.NewBuilder(honest.Gen)
	builder.Add(index.DocIDOf("dweb://attacker/spam"),
		strings.Repeat("buy spam honey now ", 8))
	return builder.Build()
}

// rankBuild reads a rank task's inputs from chain state — the link graph
// and, for a delta epoch, the previous rank vector — and returns the
// build of its page-rank partition and the build's key. Every input is
// finalized chain state, which no transaction changes while a round's
// bees fetch, so every honest bee computes the same result bytes and the
// key needs only the task and how this bee computes: whether it colludes
// and whether it detects duplicates. A bee that detects duplicates first
// fetches every page (pageSignatures), and its key covers the bytes it
// fetched; those fetches' announcements are returned.
func (b *WorkerBee) rankBuild(task contracts.Task) (buildKey, func() built, []store.Announcement, error) {
	var key buildKey
	re, ok := b.cluster.QB.RankEpochInfo(task.Epoch)
	if !ok {
		return key, nil, nil, fmt.Errorf("task %q: unknown rank epoch %d", task.ID, task.Epoch)
	}
	links := b.cluster.QB.LinkGraph()
	var prev map[string]float64
	if re.Delta {
		prev = b.cluster.QB.PageRanks()
	}
	k := newKeyHash("rank", task.ID, strconv.FormatBool(b.Colluding), strconv.FormatBool(b.DetectDuplicates))
	var sigs []pageSig
	var anns []store.Announcement
	if b.DetectDuplicates {
		sigs, anns = b.pageSignatures(links, k)
	}
	return k.sum(), func() built {
		result := b.rankResult(rank.NewGraph(links), re, prev, task.Partition, sigs)
		return built{result: result, digest: index.DigestOf(result)}
	}, anns, nil
}

// rankResult computes one partition of a rank epoch's page ranks.
func (b *WorkerBee) rankResult(g *rank.Graph, re contracts.RankEpoch, prev map[string]float64, partition int, sigs []pageSig) []byte {
	var res rank.Result
	if re.Delta {
		res = deltaRank(g, re, prev)
	} else {
		res = rank.Compute(g, rank.DefaultOptions())
	}
	ranks := res.Ranks

	if b.DetectDuplicates {
		ranks = zeroDuplicates(g, ranks, sigs)
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
		return contracts.EncodeRankResult(nil)
	}
	lo, hi := parts[partition][0], parts[partition][1]
	entries := make([]contracts.RankEntry, 0, hi-lo)
	for i := lo; i < hi; i++ {
		entries = append(entries, contracts.RankEntry{URL: g.URL(i), Rank: ranks[i]})
	}
	return contracts.EncodeRankResult(entries)
}

// deltaRank runs the incremental rank pass for a delta epoch. Every
// input is finalized chain state — the link graph, the previous rank
// vector, and the epoch's dirty snapshot — so all quorum bees compute
// identical bytes. The dirty set is the snapshot's URLs mapped to graph
// nodes plus every node the previous vector has never ranked (pages
// published after the last epoch started); ComputeDelta sorts and
// deduplicates it.
func deltaRank(g *rank.Graph, re contracts.RankEpoch, prevMap map[string]float64) rank.Result {
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
