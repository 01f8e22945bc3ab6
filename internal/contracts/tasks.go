package contracts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/chain"
	"repro/internal/xrand"
)

// TaskKind distinguishes index-update tasks from page-rank tasks.
type TaskKind string

// Task kinds.
const (
	TaskIndex TaskKind = "index"
	TaskRank  TaskKind = "rank"
)

// TaskStatus is a task's lifecycle phase.
type TaskStatus string

// Task statuses.
const (
	StatusOpen      TaskStatus = "open"      // accepting commits/reveals
	StatusFinalized TaskStatus = "finalized" // majority reached
	StatusFailed    TaskStatus = "failed"    // no majority
)

// Event types emitted by the contract.
const (
	EventPublished          = "published"
	EventTaskCreated        = "task-created"
	EventTaskFinalized      = "task-finalized"
	EventTaskFailed         = "task-failed"
	EventSlashed            = "slashed"
	EventWorkerRegistered   = "worker-registered"
	EventWorkerDeregistered = "worker-deregistered"
	EventRankEpochCreated   = "rank-epoch-created"
	EventRankEpochFinalized = "rank-epoch-finalized"
	EventPopularityPaid     = "popularity-paid"
	EventAdRegistered       = "ad-registered"
	EventAdClick            = "ad-click"
	EventAdExhausted        = "ad-exhausted"
)

// Reveal is one worker's opened vote on a task result.
type Reveal struct {
	Digest string // hex SHA-256 of the result bytes
	Tokens uint64 // index tasks: token count of the task's first-version pages
	Result []byte // carried on-chain only for rank tasks
}

// Task is one unit of verifiable work assigned to a quorum of bees.
type Task struct {
	ID        string
	Kind      TaskKind
	CreatedAt uint64
	Assignees []chain.Address

	// Pages are the page versions an index task covers, in publish order.
	Pages []BatchEntry
	// Epoch and Partition name a rank task's share of its epoch.
	Epoch     uint64
	Partition int

	Commitments map[chain.Address]string // hex H(digest || salt)
	Reveals     map[chain.Address]Reveal

	Status        TaskStatus
	WinningDigest string
	WinningTokens uint64 // the token count voted with WinningDigest (index tasks)
	WinningResult []byte

	CommitDeadline uint64
	RevealDeadline uint64
}

// Commitment computes the commit-phase hash binding a worker to a result
// digest without disclosing it: H(digestHex || salt).
func Commitment(digestHex string, salt []byte) string {
	h := sha256.New()
	h.Write([]byte(digestHex))
	h.Write(salt)
	return hex.EncodeToString(h.Sum(nil))
}

// ResultDigest hashes result bytes into the vote digest.
func ResultDigest(result []byte) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}

// createTaskLocked opens task t — its ID, kind and kind's fields set by
// the caller — with a pseudo-random quorum, seeded by the task ID and
// creation height so the assignment is deterministic and cannot be
// predicted before the triggering transaction is sealed.
func (q *QueenBee) createTaskLocked(ctx *chain.TxContext, t Task) {
	active := q.activeWorkersLocked()
	quorum := q.cfg.Quorum
	if quorum > len(active) {
		quorum = len(active)
	}
	var assignees []chain.Address
	if quorum > 0 {
		seedBytes := sha256.Sum256([]byte(fmt.Sprintf("%s@%d", t.ID, ctx.Height)))
		rng := xrand.New(binary.BigEndian.Uint64(seedBytes[:8]))
		if q.cfg.StakeWeightedQuorum {
			assignees = sampleByStake(rng, active, q.workers, quorum)
		} else {
			for _, idx := range rng.Sample(len(active), quorum) {
				assignees = append(assignees, active[idx])
			}
		}
		sort.Slice(assignees, func(i, j int) bool {
			return assignees[i].String() < assignees[j].String()
		})
	}
	t.CreatedAt = ctx.Height
	t.Assignees = assignees
	t.Commitments = make(map[chain.Address]string)
	t.Reveals = make(map[chain.Address]Reveal)
	t.Status = StatusOpen
	t.CommitDeadline = ctx.Height + commitBlocks
	t.RevealDeadline = ctx.Height + commitBlocks + revealBlocks
	q.tasks[t.ID] = &t
	q.taskOrder = append(q.taskOrder, t.ID)
	ctx.Emit(EventTaskCreated, map[string]string{
		"task":      t.ID,
		"kind":      string(t.Kind),
		"assignees": joinAddrs(assignees),
	})
}

// sampleByStake draws quorum distinct workers with probability
// proportional to stake (successive weighted draws without replacement).
func sampleByStake(rng *xrand.RNG, active []chain.Address, workers map[chain.Address]*Worker, quorum int) []chain.Address {
	remaining := append([]chain.Address(nil), active...)
	weights := make([]float64, len(remaining))
	var out []chain.Address
	for len(out) < quorum && len(remaining) > 0 {
		total := 0.0
		for i, a := range remaining {
			weights[i] = float64(workers[a].Stake)
			total += weights[i]
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(len(remaining))
		} else {
			pick = rng.Weighted(weights[:len(remaining)])
		}
		out = append(out, remaining[pick])
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return out
}

// CommitParams binds a worker to a hidden result digest.
type CommitParams struct {
	TaskID     string
	Commitment string // hex H(digest || salt)
}

func (q *QueenBee) execCommit(ctx *chain.TxContext, params []byte) error {
	var p CommitParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	t, ok := q.tasks[p.TaskID]
	if !ok {
		return fmt.Errorf("queenbee: unknown task %q", p.TaskID)
	}
	if t.Status != StatusOpen {
		return fmt.Errorf("queenbee: task %q is %s", p.TaskID, t.Status)
	}
	if !isAssignee(t, ctx.Sender) {
		return fmt.Errorf("queenbee: %s not assigned to %q", ctx.Sender.Short(), p.TaskID)
	}
	if _, dup := t.Commitments[ctx.Sender]; dup {
		return fmt.Errorf("queenbee: %s already committed to %q", ctx.Sender.Short(), p.TaskID)
	}
	if ctx.Height > t.CommitDeadline {
		return fmt.Errorf("queenbee: commit deadline passed for %q", p.TaskID)
	}
	t.Commitments[ctx.Sender] = p.Commitment
	return nil
}

// RevealParams opens a commitment.
type RevealParams struct {
	TaskID string
	Digest string // hex SHA-256 of result
	Salt   []byte
	Result []byte // required for rank tasks (result is used on-chain)
	// Tokens is the analyzed token count of the task's first-version pages
	// (index tasks) — the collection-statistics half of the vote: the
	// majority's count is what IndexStats adds at finalization.
	Tokens uint64
}

func (q *QueenBee) execReveal(ctx *chain.TxContext, params []byte) error {
	var p RevealParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	t, ok := q.tasks[p.TaskID]
	if !ok {
		return fmt.Errorf("queenbee: unknown task %q", p.TaskID)
	}
	if t.Status != StatusOpen {
		return fmt.Errorf("queenbee: task %q is %s", p.TaskID, t.Status)
	}
	if !isAssignee(t, ctx.Sender) {
		return fmt.Errorf("queenbee: %s not assigned to %q", ctx.Sender.Short(), p.TaskID)
	}
	com, committed := t.Commitments[ctx.Sender]
	if !committed {
		return fmt.Errorf("queenbee: %s reveals without commit on %q", ctx.Sender.Short(), p.TaskID)
	}
	if _, dup := t.Reveals[ctx.Sender]; dup {
		return fmt.Errorf("queenbee: %s already revealed on %q", ctx.Sender.Short(), p.TaskID)
	}
	if ctx.Height > t.RevealDeadline {
		return fmt.Errorf("queenbee: reveal deadline passed for %q", p.TaskID)
	}
	if Commitment(p.Digest, p.Salt) != com {
		return fmt.Errorf("queenbee: reveal does not match commitment on %q", p.TaskID)
	}
	if t.Kind == TaskRank {
		if len(p.Result) == 0 {
			return fmt.Errorf("queenbee: rank reveal on %q requires result bytes", p.TaskID)
		}
		if ResultDigest(p.Result) != p.Digest {
			return fmt.Errorf("queenbee: result bytes do not hash to digest on %q", p.TaskID)
		}
	}
	t.Reveals[ctx.Sender] = Reveal{Digest: p.Digest, Tokens: p.Tokens, Result: p.Result}

	// Auto-finalize once every assignee has revealed.
	if len(t.Reveals) == len(t.Assignees) && len(t.Assignees) > 0 {
		return q.finalizeTaskLocked(ctx, t)
	}
	return nil
}

// FinalizeParams closes a task after its reveal deadline.
type FinalizeParams struct {
	TaskID string
}

func (q *QueenBee) execFinalize(ctx *chain.TxContext, params []byte) error {
	var p FinalizeParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	t, ok := q.tasks[p.TaskID]
	if !ok {
		return fmt.Errorf("queenbee: unknown task %q", p.TaskID)
	}
	if t.Status != StatusOpen {
		return fmt.Errorf("queenbee: task %q is %s", p.TaskID, t.Status)
	}
	if ctx.Height <= t.RevealDeadline {
		return fmt.Errorf("queenbee: task %q reveal window still open", p.TaskID)
	}
	return q.finalizeTaskLocked(ctx, t)
}

// vote is what a reveal is tallied on: the result digest and, for index
// tasks, the token count revealed with it.
type vote struct {
	digest string
	tokens uint64
}

// finalizeTaskLocked applies majority voting: the (digest, tokens) pair
// revealed by a strict majority of the quorum wins; winners earn minted
// task rewards, workers that revealed a different pair or did not reveal
// are slashed. Without a strict majority the task fails (nobody is paid;
// non-revealers are still slashed for liveness). A finalized index task
// advances the index generation and the collection statistics.
func (q *QueenBee) finalizeTaskLocked(ctx *chain.TxContext, t *Task) error {
	votes := make(map[vote][]chain.Address)
	voteOf := func(a chain.Address) (vote, bool) {
		r, ok := t.Reveals[a]
		return vote{r.Digest, r.Tokens}, ok
	}
	for _, a := range t.Assignees {
		if v, ok := voteOf(a); ok {
			votes[v] = append(votes[v], a)
		}
	}
	// A strict majority is unique; find it in assignee order.
	var winning vote
	var winners []chain.Address
	for _, a := range t.Assignees {
		if v, ok := voteOf(a); ok && len(votes[v])*2 > len(t.Assignees) {
			winning, winners = v, votes[v]
			break
		}
	}

	if winners == nil {
		t.Status = StatusFailed
		for _, a := range t.Assignees {
			if _, ok := t.Reveals[a]; !ok {
				q.slashLocked(ctx, a, t.ID)
			}
		}
		ctx.Emit(EventTaskFailed, map[string]string{"task": t.ID})
		return nil
	}

	t.Status = StatusFinalized
	t.WinningDigest, t.WinningTokens = winning.digest, winning.tokens
	if t.Kind == TaskIndex {
		q.indexGen++
		q.indexStats.Docs += len(FirstVersionPages(*t))
		q.indexStats.Tokens += winning.tokens
	}
	for _, a := range winners {
		if w := q.workers[a]; w != nil {
			w.Completed++
		}
		if err := ctx.Mint(a, taskReward); err != nil {
			return err
		}
	}
	for _, a := range t.Assignees {
		if !t.Won(a) {
			q.slashLocked(ctx, a, t.ID)
		}
	}
	if t.Kind == TaskRank {
		t.WinningResult = t.Reveals[winners[0]].Result
		q.onRankTaskFinalizedLocked(ctx, t)
	}
	ctx.Emit(EventTaskFinalized, map[string]string{
		"task":   t.ID,
		"kind":   string(t.Kind),
		"digest": winning.digest,
	})
	return nil
}

// Won reports whether a revealed the pair a finalized task settled on.
func (t *Task) Won(a chain.Address) bool {
	r, revealed := t.Reveals[a]
	return revealed && t.Status == StatusFinalized && r.Digest == t.WinningDigest && r.Tokens == t.WinningTokens
}

// FirstVersionPages lists the URLs an index task registered for the
// first time (Seq == 1) — the documents the task adds to the collection.
// The contract wrote the task's pages itself, so their number needs no
// vote; their token count does (RevealParams.Tokens).
func FirstVersionPages(t Task) []string {
	var urls []string
	for _, e := range t.Pages {
		if e.Seq == 1 {
			urls = append(urls, e.URL)
		}
	}
	return urls
}

func isAssignee(t *Task, a chain.Address) bool {
	for _, x := range t.Assignees {
		if x == a {
			return true
		}
	}
	return false
}

// TaskInfo returns a copy of a task (engine read path).
func (q *QueenBee) TaskInfo(id string) (Task, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	t, ok := q.tasks[id]
	if !ok {
		return Task{}, false
	}
	return copyTask(t), true
}

// OpenTasksFor returns the open tasks assigned to a worker, in creation
// order.
func (q *QueenBee) OpenTasksFor(a chain.Address) []Task {
	q.mu.RLock()
	defer q.mu.RUnlock()
	var out []Task
	for _, id := range q.taskOrder {
		t := q.tasks[id]
		if t.Status == StatusOpen && isAssignee(t, a) {
			out = append(out, copyTask(t))
		}
	}
	return out
}

// OpenTasksPastDeadline returns IDs of open tasks whose reveal window has
// closed at the given height — candidates for anyone-may-finalize.
func (q *QueenBee) OpenTasksPastDeadline(height uint64) []string {
	q.mu.RLock()
	defer q.mu.RUnlock()
	var out []string
	for _, id := range q.taskOrder {
		t := q.tasks[id]
		if t.Status == StatusOpen && height > t.RevealDeadline {
			out = append(out, id)
		}
	}
	return out
}

// IndexGen returns a generation counter that advances once per finalized
// index task — the only event after which a materialize pass moves shard
// pointers. Pointer writers stamp the generation their pass materialized
// (core.ShardPointer.Gen); a reader holding a pointer stamped with the
// current generation knows no newer one exists without asking a quorum.
// Failed tasks and rank tasks do not advance it.
func (q *QueenBee) IndexGen() uint64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.indexGen
}

// IndexStats is the BM25 collection statistics: the documents and
// analyzed tokens of every first-version page a finalized index task
// covered. Re-published pages are counted once, at their first version.
type IndexStats struct {
	Docs   int
	Tokens uint64
}

// IndexStats returns the collection statistics as of the last finalized
// index task. Docs is counted by the contract from the tasks' own page
// lists; Tokens sums the counts the winning majorities revealed.
func (q *QueenBee) IndexStats() IndexStats {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.indexStats
}

// TaskCounts reports how many tasks are in each status.
func (q *QueenBee) TaskCounts() (open, finalized, failed int) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	for _, t := range q.tasks {
		switch t.Status {
		case StatusOpen:
			open++
		case StatusFinalized:
			finalized++
		case StatusFailed:
			failed++
		}
	}
	return
}

func copyTask(t *Task) Task {
	out := *t
	out.Assignees = append([]chain.Address(nil), t.Assignees...)
	out.Commitments = make(map[chain.Address]string, len(t.Commitments))
	for k, v := range t.Commitments {
		out.Commitments[k] = v
	}
	out.Reveals = make(map[chain.Address]Reveal, len(t.Reveals))
	for k, v := range t.Reveals {
		out.Reveals[k] = v
	}
	out.Pages = append([]BatchEntry(nil), t.Pages...)
	return out
}
