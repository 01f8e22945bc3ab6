package contracts

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/vclock"
)

// harness wires a chain, the contract and a cast of funded accounts.
type harness struct {
	t      *testing.T
	chain  *chain.Chain
	clock  *vclock.Clock
	qb     *QueenBee
	nonces map[chain.Address]uint64
}

func newHarness(t *testing.T, cfg Config, accts ...*chain.Account) *harness {
	t.Helper()
	clock := vclock.New(time.Time{})
	genesis := make(map[chain.Address]uint64)
	for _, a := range accts {
		genesis[a.Address()] = 10_000
	}
	c := chain.New(clock, genesis)
	qb := New(cfg)
	c.RegisterContract(qb, true)
	return &harness{t: t, chain: c, clock: clock, qb: qb, nonces: map[chain.Address]uint64{}}
}

// call submits a contract call and returns the tx for receipt checks.
func (h *harness) call(from *chain.Account, method string, params any, value uint64) *chain.Tx {
	h.t.Helper()
	n := h.nonces[from.Address()]
	h.nonces[from.Address()]++
	tx := chain.NewCall(from, n, ContractName, method, params, value)
	h.chain.Submit(tx)
	return tx
}

// publish submits a publish of one page: a one-page batch.
func (h *harness) publish(from *chain.Account, page PublishParams) *chain.Tx {
	h.t.Helper()
	return h.call(from, MethodPublishBatch, PublishBatchParams{Pages: []PublishParams{page}}, 0)
}

// seal seals a block and advances the clock.
func (h *harness) seal() {
	h.clock.Advance(10 * time.Second)
	h.chain.Seal()
}

// mustOK asserts a transaction succeeded.
func (h *harness) mustOK(tx *chain.Tx) {
	h.t.Helper()
	r := h.chain.Receipt(tx.Hash())
	if r == nil {
		h.t.Fatal("no receipt (did you seal?)")
	}
	if !r.OK {
		h.t.Fatalf("tx failed: %s", r.Err)
	}
}

// mustFail asserts a transaction failed.
func (h *harness) mustFail(tx *chain.Tx) {
	h.t.Helper()
	r := h.chain.Receipt(tx.Hash())
	if r == nil {
		h.t.Fatal("no receipt (did you seal?)")
	}
	if r.OK {
		h.t.Fatal("tx unexpectedly succeeded")
	}
}

// checkEscrowInvariant verifies escrow balance == stakes + budgets + dust.
func (h *harness) checkEscrowInvariant() {
	h.t.Helper()
	b := h.qb.Escrow()
	onChain := h.chain.State().Balance(chain.EscrowAddress(ContractName))
	if want := b.Stakes + b.AdBudgets + b.Dust; onChain != want {
		h.t.Fatalf("escrow invariant violated: on-chain %d != stakes %d + budgets %d + dust %d",
			onChain, b.Stakes, b.AdBudgets, b.Dust)
	}
}

func workers(n int) []*chain.Account {
	out := make([]*chain.Account, n)
	for i := range out {
		out[i] = chain.NewNamedAccount(100, fmt.Sprintf("worker-%d", i))
	}
	return out
}

func TestPublishRegistersPageAndCreatesTask(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 100)
	}
	h.seal()

	tx := h.publish(alice, PublishParams{URL: "dweb://a", CID: "c1", Links: []string{"dweb://b"}})
	h.seal()
	h.mustOK(tx)

	rec, ok := h.qb.Page("dweb://a")
	if !ok || rec.CID != "c1" || rec.Seq != 1 || rec.Owner != alice.Address() {
		t.Fatalf("page record = %+v ok=%v", rec, ok)
	}
	task, ok := h.qb.TaskInfo("idx:dweb://a:1")
	if !ok {
		t.Fatal("index task not created")
	}
	if len(task.Assignees) != 3 {
		t.Fatalf("assignees = %d, want quorum 3", len(task.Assignees))
	}
	if task.Kind != TaskIndex || task.Status != StatusOpen {
		t.Fatalf("task = %+v", task)
	}
	if len(task.Pages) != 1 || task.Pages[0] != (BatchEntry{URL: "dweb://a", CID: "c1", Seq: 1}) {
		t.Fatalf("task pages = %+v", task.Pages)
	}
}

func TestRepublishBumpsSeq(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	h := newHarness(t, DefaultConfig(), alice)
	h.publish(alice, PublishParams{URL: "dweb://a", CID: "c1"})
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://a", CID: "c2"})
	h.seal()
	rec, _ := h.qb.Page("dweb://a")
	if rec.Seq != 2 || rec.CID != "c2" {
		t.Fatalf("rec = %+v, want seq 2 cid c2", rec)
	}
}

func TestPublishOwnershipEnforced(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	mallory := chain.NewNamedAccount(1, "mallory")
	h := newHarness(t, DefaultConfig(), alice, mallory)
	h.publish(alice, PublishParams{URL: "dweb://a", CID: "c1"})
	h.seal()
	tx := h.publish(mallory, PublishParams{URL: "dweb://a", CID: "evil"})
	h.seal()
	h.mustFail(tx)
	rec, _ := h.qb.Page("dweb://a")
	if rec.CID != "c1" {
		t.Fatal("hijack succeeded")
	}
}

// TestPublishBatchCarriesProvider: the provider a publish names reaches
// the bees — in the task's Pages, for a batch and for a single page (a
// one-page batch) alike — and nothing else: the same publishes without it
// create the same task IDs, assignees and page records.
func TestPublishBatchCarriesProvider(t *testing.T) {
	type outcome struct {
		batch, single Task
		pages         []PageRecord
	}
	run := func(provider string) outcome {
		alice := chain.NewNamedAccount(1, "alice")
		ws := workers(3)
		h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
		for _, w := range ws {
			h.call(w, MethodRegisterWorker, nil, 100)
		}
		h.seal()
		batch := h.call(alice, MethodPublishBatch, PublishBatchParams{Pages: []PublishParams{
			{URL: "dweb://a", CID: "c1", Links: []string{"dweb://b"}, Provider: provider},
			{URL: "dweb://b", CID: "c2", Provider: provider},
		}}, 0)
		single := h.publish(alice, PublishParams{URL: "dweb://c", CID: "c3", Provider: provider})
		h.seal()
		h.mustOK(batch)
		h.mustOK(single)
		var out outcome
		for _, task := range h.qb.OpenTasksFor(ws[0].Address()) {
			if len(task.Pages) == 1 {
				out.single = task
			} else {
				out.batch = task
			}
		}
		for _, url := range []string{"dweb://a", "dweb://b", "dweb://c"} {
			rec, _ := h.qb.Page(url)
			out.pages = append(out.pages, rec)
		}
		return out
	}
	named, plain := run("peer-007"), run("")

	if len(named.batch.Pages) != 2 || len(plain.batch.Pages) != 2 || len(named.single.Pages) != 1 || len(plain.single.Pages) != 1 {
		t.Fatalf("task pages %+v %+v / %+v %+v", named.batch.Pages, named.single.Pages, plain.batch.Pages, plain.single.Pages)
	}
	for _, pair := range [][2]Task{{named.batch, plain.batch}, {named.single, plain.single}} {
		if pair[0].ID == "" || pair[0].ID != pair[1].ID || fmt.Sprint(pair[0].Assignees) != fmt.Sprint(pair[1].Assignees) {
			t.Fatalf("task %q assigned %v named, %q assigned %v unnamed", pair[0].ID, pair[0].Assignees, pair[1].ID, pair[1].Assignees)
		}
		for i, e := range pair[0].Pages {
			if e.Provider != "peer-007" || pair[1].Pages[i].Provider != "" {
				t.Fatalf("task %q page %d: provider %q named, %q unnamed", pair[0].ID, i, e.Provider, pair[1].Pages[i].Provider)
			}
			e.Provider = ""
			if e != pair[1].Pages[i] {
				t.Fatalf("task %q page %d differs beyond its provider: %+v vs %+v", pair[0].ID, i, e, pair[1].Pages[i])
			}
		}
	}
	if fmt.Sprintf("%+v", named.pages) != fmt.Sprintf("%+v", plain.pages) {
		t.Fatalf("page records differ:\n%+v\n%+v", named.pages, plain.pages)
	}
}

// TestIndexTaskNaming pins the naming rule: a task covering one page
// version is idx:<url>:<seq>, any other idxb:<height>:<hash>. The name
// seeds the quorum draw, so it decides which bees build the page.
func TestIndexTaskNaming(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 100)
	}
	h.seal()
	first := h.publish(alice, PublishParams{URL: "dweb://a", CID: "c1"})
	h.seal()
	second := h.publish(alice, PublishParams{URL: "dweb://a", CID: "c2"})
	batch := h.call(alice, MethodPublishBatch, PublishBatchParams{Pages: []PublishParams{
		{URL: "dweb://b", CID: "c3"}, {URL: "dweb://c", CID: "c4"},
	}}, 0)
	h.seal()
	for _, tx := range []*chain.Tx{first, second, batch} {
		h.mustOK(tx)
	}

	var ids []string
	for _, task := range h.qb.OpenTasksFor(ws[0].Address()) {
		ids = append(ids, task.ID)
	}
	want := []string{"idx:dweb://a:1", "idx:dweb://a:2", indexTaskID(h.chain.Height(), []BatchEntry{
		{URL: "dweb://b", CID: "c3", Seq: 1}, {URL: "dweb://c", CID: "c4", Seq: 1},
	})}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("task IDs %v, want %v", ids, want)
	}
	if prefix := fmt.Sprintf("idxb:%d:", h.chain.Height()); !strings.HasPrefix(ids[2], prefix) || len(ids[2]) != len(prefix)+16 {
		t.Fatalf("batch task ID %q, want %s<16 hex digits>", ids[2], prefix)
	}
}

// TestTaskReadsReturnCopies: the tasks TaskInfo and OpenTasksFor return
// share no memory with chain state, so a caller mutating one — its Pages
// above all, which the bees fetch from — leaves the contract's task alone.
func TestTaskReadsReturnCopies(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 100)
	}
	h.seal()
	tx := h.call(alice, MethodPublishBatch, PublishBatchParams{Pages: []PublishParams{
		{URL: "dweb://a", CID: "c1", Provider: "peer-1"}, {URL: "dweb://b", CID: "c2", Provider: "peer-1"},
	}}, 0)
	h.seal()
	h.mustOK(tx)

	open := h.qb.OpenTasksFor(ws[0].Address())
	if len(open) != 1 {
		t.Fatalf("open tasks = %d, want 1", len(open))
	}
	id := open[0].ID
	before, _ := h.qb.TaskInfo(id)
	want := fmt.Sprintf("%+v", before.Pages)

	info, _ := h.qb.TaskInfo(id)
	for _, task := range []Task{open[0], info} {
		task.Pages[0].URL = "dweb://forged"
		task.Pages[1].CID = "forged"
		task.Pages = append(task.Pages[:1], BatchEntry{URL: "dweb://extra"})
		task.Assignees[0] = alice.Address()
	}
	after, _ := h.qb.TaskInfo(id)
	if got := fmt.Sprintf("%+v", after.Pages); got != want {
		t.Fatalf("chain task pages moved: %s, want %s", got, want)
	}
	if fmt.Sprint(after.Assignees) != fmt.Sprint(before.Assignees) {
		t.Fatalf("chain task assignees moved: %v, want %v", after.Assignees, before.Assignees)
	}
}

func TestWorkerRegistration(t *testing.T) {
	w := chain.NewNamedAccount(1, "w")
	h := newHarness(t, DefaultConfig(), w)

	low := h.call(w, MethodRegisterWorker, nil, 50) // below MinStake 100
	h.seal()
	h.mustFail(low)

	ok := h.call(w, MethodRegisterWorker, nil, 150)
	h.seal()
	h.mustOK(ok)
	info, found := h.qb.WorkerInfo(w.Address())
	if !found || !info.Active || info.Stake != 150 {
		t.Fatalf("worker = %+v", info)
	}
	h.checkEscrowInvariant()

	dup := h.call(w, MethodRegisterWorker, nil, 150)
	h.seal()
	h.mustFail(dup)

	dereg := h.call(w, MethodDeregisterWorker, nil, 0)
	h.seal()
	h.mustOK(dereg)
	if got := h.chain.State().Balance(w.Address()); got != 10_000 {
		t.Fatalf("balance after deregister = %d, want 10000", got)
	}
	h.checkEscrowInvariant()
}

// runTask drives a full commit-reveal cycle where each worker submits the
// digest returned by digestFor.
func runTask(h *harness, taskID string, ws []*chain.Account, digestFor func(i int) string) {
	h.t.Helper()
	runTaskVotes(h, taskID, ws, func(i int) (string, uint64) { return digestFor(i), 0 })
}

// runTaskVotes is runTask with each worker's revealed token count.
func runTaskVotes(h *harness, taskID string, ws []*chain.Account, voteFor func(i int) (digest string, tokens uint64)) {
	h.t.Helper()
	digestFor := func(i int) string { d, _ := voteFor(i); return d }
	task, ok := h.qb.TaskInfo(taskID)
	if !ok {
		h.t.Fatalf("task %s missing", taskID)
	}
	assigned := map[chain.Address]bool{}
	for _, a := range task.Assignees {
		assigned[a] = true
	}
	salts := map[int][]byte{}
	for i, w := range ws {
		if !assigned[w.Address()] {
			continue
		}
		salts[i] = []byte{byte(i), 0xAB}
		h.call(w, MethodCommit, CommitParams{
			TaskID:     taskID,
			Commitment: Commitment(digestFor(i), salts[i]),
		}, 0)
	}
	h.seal()
	for i, w := range ws {
		if !assigned[w.Address()] {
			continue
		}
		digest, tokens := voteFor(i)
		h.call(w, MethodReveal, RevealParams{
			TaskID: taskID,
			Digest: digest,
			Salt:   salts[i],
			Tokens: tokens,
		}, 0)
	}
	h.seal()
}

// TestIndexStatsVotedWithDigest: the collection statistics move only at
// the finalization of an index task, by the token count its majority
// revealed and by the first-version pages the contract counts from the
// task's own page list. A bee that reveals the winning digest with a
// different count is a dissenter like any other.
func TestIndexStatsVotedWithDigest(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()
	if st := h.qb.IndexStats(); st != (IndexStats{}) {
		t.Fatalf("stats %+v before any task finalized", st)
	}

	digest := ResultDigest([]byte("postings"))
	task, _ := h.qb.TaskInfo("idx:dweb://p:1")
	liar := task.Assignees[1]
	runTaskVotes(h, task.ID, ws, func(i int) (string, uint64) {
		if ws[i].Address() == liar {
			return digest, 9000
		}
		return digest, 7
	})
	task, _ = h.qb.TaskInfo(task.ID)
	if task.Status != StatusFinalized || task.WinningDigest != digest || task.WinningTokens != 7 {
		t.Fatalf("task = %+v, want the majority's (digest, 7)", task)
	}
	if st := h.qb.IndexStats(); st != (IndexStats{Docs: 1, Tokens: 7}) {
		t.Fatalf("stats = %+v, want one document of the majority's 7 tokens", st)
	}
	for _, w := range ws {
		info, _ := h.qb.WorkerInfo(w.Address())
		lied := w.Address() == liar
		if task.Won(w.Address()) == lied || (info.Slashes == 1) != lied || (info.Completed == 1) == lied {
			t.Fatalf("worker %s (lied=%v): won=%v %+v", w.Address().Short(), lied, task.Won(w.Address()), info)
		}
	}
	h.checkEscrowInvariant()

	// A batch of one re-published and two new pages adds two documents.
	h.call(alice, MethodPublishBatch, PublishBatchParams{Pages: []PublishParams{
		{URL: "dweb://p", CID: "c2"}, {URL: "dweb://q", CID: "c3"}, {URL: "dweb://r", CID: "c4"},
	}}, 0)
	h.seal()
	var batchID string
	for _, w := range ws {
		for _, open := range h.qb.OpenTasksFor(w.Address()) {
			batchID = open.ID
		}
	}
	runTaskVotes(h, batchID, ws, func(int) (string, uint64) { return digest, 30 })
	if st := h.qb.IndexStats(); st != (IndexStats{Docs: 3, Tokens: 37}) {
		t.Fatalf("stats after the batch = %+v, want 3 docs / 37 tokens", st)
	}

	// One digest, three counts: no pair has a majority, nothing moves.
	h.publish(alice, PublishParams{URL: "dweb://s", CID: "c5"})
	h.seal()
	runTaskVotes(h, "idx:dweb://s:1", ws, func(i int) (string, uint64) { return digest, uint64(i) })
	if task, _ := h.qb.TaskInfo("idx:dweb://s:1"); task.Status != StatusFailed {
		t.Fatalf("task = %+v, want failed", task)
	}
	if st, gen := h.qb.IndexStats(), h.qb.IndexGen(); st != (IndexStats{Docs: 3, Tokens: 37}) || gen != 2 {
		t.Fatalf("a failed task moved the stats to %+v (generation %d)", st, gen)
	}
}

func TestCommitRevealHonestQuorum(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()

	honest := ResultDigest([]byte("postings-v1"))
	if gen := h.qb.IndexGen(); gen != 0 {
		t.Fatalf("index generation %d before any task finalized", gen)
	}
	runTask(h, "idx:dweb://p:1", ws, func(int) string { return honest })

	task, _ := h.qb.TaskInfo("idx:dweb://p:1")
	if task.Status != StatusFinalized || task.WinningDigest != honest {
		t.Fatalf("task = %+v", task)
	}
	if gen := h.qb.IndexGen(); gen != 1 {
		t.Fatalf("index generation = %d after one finalized index task, want 1", gen)
	}
	// Every assignee earned the task reward.
	for _, w := range ws {
		info, _ := h.qb.WorkerInfo(w.Address())
		if !isAssigneeAddr(task.Assignees, w.Address()) {
			continue
		}
		if info.Completed != 1 {
			t.Fatalf("worker %s completed = %d", w.Address().Short(), info.Completed)
		}
		bal := h.chain.State().Balance(w.Address())
		if bal != 10_000-200+taskReward {
			t.Fatalf("worker balance = %d", bal)
		}
	}
	h.checkEscrowInvariant()
}

func isAssigneeAddr(assignees []chain.Address, a chain.Address) bool {
	for _, x := range assignees {
		if x == a {
			return true
		}
	}
	return false
}

func TestMinorityDissenterSlashed(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()

	honest := ResultDigest([]byte("good"))
	evil := ResultDigest([]byte("evil"))
	// Worker index 0 (in assignee order) lies.
	task, _ := h.qb.TaskInfo("idx:dweb://p:1")
	liar := task.Assignees[0]
	runTask(h, "idx:dweb://p:1", ws, func(i int) string {
		if ws[i].Address() == liar {
			return evil
		}
		return honest
	})

	task, _ = h.qb.TaskInfo("idx:dweb://p:1")
	if task.Status != StatusFinalized || task.WinningDigest != honest {
		t.Fatalf("honest digest should win: %+v", task)
	}
	info, _ := h.qb.WorkerInfo(liar)
	if info.Slashes != 1 {
		t.Fatalf("liar slashes = %d, want 1", info.Slashes)
	}
	if info.Stake != 200-slashAmount {
		t.Fatalf("liar stake = %d", info.Stake)
	}
	h.checkEscrowInvariant()
	// Slash is burned: supply went down by slash, up by 2 rewards.
	burned := h.chain.State().Burned()
	if burned != slashAmount {
		t.Fatalf("burned = %d, want %d", burned, slashAmount)
	}
}

func TestColludingMajorityCorruptsTask(t *testing.T) {
	// The attack the paper warns about: with 2 of 3 assignees colluding,
	// the wrong digest wins and honest workers get slashed.
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()

	honest := ResultDigest([]byte("good"))
	evil := ResultDigest([]byte("evil"))
	task, _ := h.qb.TaskInfo("idx:dweb://p:1")
	honestWorker := task.Assignees[0]
	runTask(h, "idx:dweb://p:1", ws, func(i int) string {
		if ws[i].Address() == honestWorker {
			return honest
		}
		return evil
	})

	task, _ = h.qb.TaskInfo("idx:dweb://p:1")
	if task.WinningDigest != evil {
		t.Fatalf("collusion should win with 2/3: %+v", task)
	}
	info, _ := h.qb.WorkerInfo(honestWorker)
	if info.Slashes != 1 {
		t.Fatal("honest minority should be slashed (the cost of the attack)")
	}
}

func TestNoMajorityFailsTask(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()

	// Three distinct digests: no strict majority.
	runTask(h, "idx:dweb://p:1", ws, func(i int) string {
		return ResultDigest([]byte{byte(i)})
	})
	task, _ := h.qb.TaskInfo("idx:dweb://p:1")
	if task.Status != StatusFailed {
		t.Fatalf("task = %+v, want failed", task)
	}
	if gen, st := h.qb.IndexGen(), h.qb.IndexStats(); gen != 0 || st != (IndexStats{}) {
		t.Fatalf("a failed task moved the index generation to %d, the stats to %+v", gen, st)
	}
}

func TestRevealMustMatchCommitment(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(1)
	cfg := DefaultConfig()
	cfg.Quorum = 1
	h := newHarness(t, cfg, append([]*chain.Account{alice}, ws...)...)
	h.call(ws[0], MethodRegisterWorker, nil, 200)
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()

	h.call(ws[0], MethodCommit, CommitParams{
		TaskID:     "idx:dweb://p:1",
		Commitment: Commitment(ResultDigest([]byte("a")), []byte("salt")),
	}, 0)
	h.seal()
	bad := h.call(ws[0], MethodReveal, RevealParams{
		TaskID: "idx:dweb://p:1",
		Digest: ResultDigest([]byte("DIFFERENT")),
		Salt:   []byte("salt"),
	}, 0)
	h.seal()
	h.mustFail(bad)
}

func TestNonAssigneeCannotCommit(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	outsider := chain.NewNamedAccount(1, "outsider")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice, outsider}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()
	tx := h.call(outsider, MethodCommit, CommitParams{TaskID: "idx:dweb://p:1", Commitment: "00"}, 0)
	h.seal()
	h.mustFail(tx)
}

func TestFinalizeAfterDeadlineSlashesNonRevealers(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()

	// Two of three commit+reveal; the third is silent.
	task, _ := h.qb.TaskInfo("idx:dweb://p:1")
	digest := ResultDigest([]byte("r"))
	salt := []byte("s")
	active := task.Assignees[:2]
	byAddr := map[chain.Address]*chain.Account{}
	for _, w := range ws {
		byAddr[w.Address()] = w
	}
	for _, a := range active {
		h.call(byAddr[a], MethodCommit, CommitParams{TaskID: task.ID, Commitment: Commitment(digest, salt)}, 0)
	}
	h.seal()
	for _, a := range active {
		h.call(byAddr[a], MethodReveal, RevealParams{TaskID: task.ID, Digest: digest, Salt: salt}, 0)
	}
	h.seal()

	// Reveal window still open → finalize must fail.
	early := h.call(alice, MethodFinalize, FinalizeParams{TaskID: task.ID}, 0)
	h.seal()
	h.mustFail(early)

	// Burn blocks past the deadline.
	for h.chain.Height() <= task.RevealDeadline {
		h.seal()
	}
	late := h.call(alice, MethodFinalize, FinalizeParams{TaskID: task.ID}, 0)
	h.seal()
	h.mustOK(late)

	got, _ := h.qb.TaskInfo(task.ID)
	if got.Status != StatusFinalized || got.WinningDigest != digest {
		t.Fatalf("task = %+v", got)
	}
	silent := task.Assignees[2]
	info, _ := h.qb.WorkerInfo(silent)
	if info.Slashes != 1 {
		t.Fatalf("silent worker slashes = %d, want 1", info.Slashes)
	}
	h.checkEscrowInvariant()
}

func TestRankEpochLifecycle(t *testing.T) {
	admin := chain.NewNamedAccount(1, "admin")
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{admin, alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.publish(alice, PublishParams{URL: "dweb://a", CID: "c"})
	h.seal()

	h.call(admin, MethodCreateRankEpoch, CreateRankEpochParams{Epoch: 1, Partitions: 2}, 0)
	h.seal()

	result0 := EncodeRankResult([]RankEntry{{URL: "dweb://a", Rank: 0.5}})
	result1 := EncodeRankResult([]RankEntry{{URL: "dweb://b", Rank: 0.25}})

	byAddr := map[chain.Address]*chain.Account{}
	for _, w := range ws {
		byAddr[w.Address()] = w
	}
	// Commit to both partitions within one block, reveal in the next, so
	// both fit inside the commit/reveal windows.
	results := [][]byte{result0, result1}
	for part, result := range results {
		id := RankTaskID(1, part)
		task, ok := h.qb.TaskInfo(id)
		if !ok {
			t.Fatalf("missing task %s", id)
		}
		if task.Kind != TaskRank || task.Epoch != 1 || task.Partition != part || task.Pages != nil {
			t.Fatalf("rank task %s: kind %s epoch %d partition %d pages %v", id, task.Kind, task.Epoch, task.Partition, task.Pages)
		}
		digest := ResultDigest(result)
		salt := []byte{byte(part)}
		for _, a := range task.Assignees {
			h.call(byAddr[a], MethodCommit, CommitParams{TaskID: id, Commitment: Commitment(digest, salt)}, 0)
		}
	}
	h.seal()
	for part, result := range results {
		id := RankTaskID(1, part)
		task, _ := h.qb.TaskInfo(id)
		digest := ResultDigest(result)
		salt := []byte{byte(part)}
		for _, a := range task.Assignees {
			h.call(byAddr[a], MethodReveal, RevealParams{TaskID: id, Digest: digest, Salt: salt, Result: result, Tokens: 5}, 0)
		}
	}
	h.seal()

	if got := h.qb.LatestRankEpoch(); got != 1 {
		t.Fatalf("latest epoch = %d, want 1", got)
	}
	if got := h.qb.PageRank("dweb://a"); got != 0.5 {
		t.Fatalf("rank a = %v, want 0.5", got)
	}
	if got := h.qb.PageRank("dweb://b"); got != 0.25 {
		t.Fatalf("rank b = %v, want 0.25", got)
	}
	if gen, st := h.qb.IndexGen(), h.qb.IndexStats(); gen != 0 || st != (IndexStats{}) {
		t.Fatalf("rank tasks moved the index generation to %d, the stats to %+v", gen, st)
	}
}

func TestRankRevealRequiresResult(t *testing.T) {
	admin := chain.NewNamedAccount(1, "admin")
	ws := workers(1)
	cfg := DefaultConfig()
	cfg.Quorum = 1
	h := newHarness(t, cfg, append([]*chain.Account{admin}, ws...)...)
	h.call(ws[0], MethodRegisterWorker, nil, 200)
	h.seal()
	h.call(admin, MethodCreateRankEpoch, CreateRankEpochParams{Epoch: 1, Partitions: 1}, 0)
	h.seal()

	id := RankTaskID(1, 0)
	digest := ResultDigest([]byte("r"))
	h.call(ws[0], MethodCommit, CommitParams{TaskID: id, Commitment: Commitment(digest, []byte("s"))}, 0)
	h.seal()
	tx := h.call(ws[0], MethodReveal, RevealParams{TaskID: id, Digest: digest, Salt: []byte("s")}, 0)
	h.seal()
	h.mustFail(tx)
}

func TestPopularityRewards(t *testing.T) {
	admin := chain.NewNamedAccount(1, "admin")
	alice := chain.NewNamedAccount(1, "alice")
	bob := chain.NewNamedAccount(1, "bob")
	ws := workers(1)
	cfg := DefaultConfig()
	cfg.Quorum = 1
	cfg.PopularityThreshold = 0.1
	h := newHarness(t, cfg, append([]*chain.Account{admin, alice, bob}, ws...)...)
	h.call(ws[0], MethodRegisterWorker, nil, 200)
	h.publish(alice, PublishParams{URL: "dweb://popular", CID: "c"})
	h.publish(bob, PublishParams{URL: "dweb://obscure", CID: "c"})
	h.seal()

	h.call(admin, MethodCreateRankEpoch, CreateRankEpochParams{Epoch: 1, Partitions: 1}, 0)
	h.seal()
	result := EncodeRankResult([]RankEntry{
		{URL: "dweb://popular", Rank: 0.9},
		{URL: "dweb://obscure", Rank: 0.01},
	})
	id := RankTaskID(1, 0)
	digest := ResultDigest(result)
	h.call(ws[0], MethodCommit, CommitParams{TaskID: id, Commitment: Commitment(digest, []byte("s"))}, 0)
	h.seal()
	h.call(ws[0], MethodReveal, RevealParams{TaskID: id, Digest: digest, Salt: []byte("s"), Result: result}, 0)
	h.seal()

	before := h.chain.State().Balance(alice.Address())
	pay := h.call(admin, MethodPayPopularity, PayPopularityParams{Epoch: 1}, 0)
	h.seal()
	h.mustOK(pay)
	if got := h.chain.State().Balance(alice.Address()); got != before+popularityReward {
		t.Fatalf("alice balance = %d, want +%d", got, popularityReward)
	}
	bobBefore := h.chain.State().Balance(bob.Address())
	_ = bobBefore
	// Double pay must fail (all pages above threshold already paid).
	again := h.call(admin, MethodPayPopularity, PayPopularityParams{Epoch: 1}, 0)
	h.seal()
	h.mustFail(again)
}

func TestAdLifecycleAndClickSplit(t *testing.T) {
	advertiser := chain.NewNamedAccount(1, "adv")
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(2)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{advertiser, alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 100)
	}
	h.publish(alice, PublishParams{URL: "dweb://page", CID: "c"})
	h.seal()

	reg := h.call(advertiser, MethodRegisterAd, RegisterAdParams{
		Keywords: []string{"Shoes", "boots"}, BidPerClick: 100,
	}, 1000)
	h.seal()
	h.mustOK(reg)
	h.checkEscrowInvariant()

	ads := h.qb.AdsForTerms([]string{"shoes"})
	if len(ads) != 1 || ads[0].BidPerClick != 100 {
		t.Fatalf("AdsForTerms = %+v", ads)
	}

	aliceBefore := h.chain.State().Balance(alice.Address())
	w0Before := h.chain.State().Balance(ws[0].Address())
	click := h.call(alice, MethodClick, ClickParams{AdID: ads[0].ID, URL: "dweb://page"}, 0)
	h.seal()
	h.mustOK(click)

	// 100 per click: 60 creator, 40/2=20 per worker.
	if got := h.chain.State().Balance(alice.Address()); got != aliceBefore+60 {
		t.Fatalf("creator cut = %d, want +60", got-aliceBefore)
	}
	if got := h.chain.State().Balance(ws[0].Address()); got != w0Before+20 {
		t.Fatalf("worker cut = %d, want +20", got-w0Before)
	}
	ad, _ := h.qb.AdInfo(ads[0].ID)
	if ad.Budget != 900 || ad.Clicks != 1 {
		t.Fatalf("ad = %+v", ad)
	}
	h.checkEscrowInvariant()
}

func TestAdExhaustion(t *testing.T) {
	advertiser := chain.NewNamedAccount(1, "adv")
	alice := chain.NewNamedAccount(1, "alice")
	h := newHarness(t, DefaultConfig(), advertiser, alice)
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(advertiser, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerClick: 100}, 150)
	h.seal()

	ads := h.qb.AdsForTerms([]string{"k"})
	first := h.call(alice, MethodClick, ClickParams{AdID: ads[0].ID, URL: "dweb://p"}, 0)
	h.seal()
	h.mustOK(first)
	// Budget now 50 < bid: ad inactive.
	second := h.call(alice, MethodClick, ClickParams{AdID: ads[0].ID, URL: "dweb://p"}, 0)
	h.seal()
	h.mustFail(second)
	if len(h.qb.AdsForTerms([]string{"k"})) != 0 {
		t.Fatal("exhausted ad still served")
	}
	// Top-up reactivates.
	topup := h.call(advertiser, MethodTopUpAd, TopUpAdParams{AdID: ads[0].ID}, 500)
	h.seal()
	h.mustOK(topup)
	if len(h.qb.AdsForTerms([]string{"k"})) != 1 {
		t.Fatal("top-up should reactivate ad")
	}
	h.checkEscrowInvariant()
}

func TestClickDustWithNoWorkers(t *testing.T) {
	advertiser := chain.NewNamedAccount(1, "adv")
	alice := chain.NewNamedAccount(1, "alice")
	h := newHarness(t, DefaultConfig(), advertiser, alice)
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(advertiser, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerClick: 100}, 200)
	h.seal()
	ads := h.qb.AdsForTerms([]string{"k"})
	h.call(alice, MethodClick, ClickParams{AdID: ads[0].ID, URL: "dweb://p"}, 0)
	h.seal()
	b := h.qb.Escrow()
	if b.Dust != 40 { // no workers → worker cut becomes dust
		t.Fatalf("dust = %d, want 40", b.Dust)
	}
	h.checkEscrowInvariant()
}

func TestAdsSortedByBid(t *testing.T) {
	a1 := chain.NewNamedAccount(1, "a1")
	a2 := chain.NewNamedAccount(1, "a2")
	h := newHarness(t, DefaultConfig(), a1, a2)
	h.call(a1, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerClick: 10}, 100)
	h.call(a2, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerClick: 99}, 100)
	h.seal()
	ads := h.qb.AdsForTerms([]string{"k"})
	if len(ads) != 2 || ads[0].BidPerClick != 99 {
		t.Fatalf("ads = %+v, want highest bid first", ads)
	}
}

func TestQuorumSmallerThanPoolAssignsAll(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	ws := workers(2) // pool smaller than quorum 3
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.seal()
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.seal()
	task, _ := h.qb.TaskInfo("idx:dweb://p:1")
	if len(task.Assignees) != 2 {
		t.Fatalf("assignees = %d, want all 2", len(task.Assignees))
	}
}

func TestSupplyConservationAcrossFullFlow(t *testing.T) {
	admin := chain.NewNamedAccount(1, "admin")
	alice := chain.NewNamedAccount(1, "alice")
	adv := chain.NewNamedAccount(1, "adv")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{admin, alice, adv}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 300)
	}
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(adv, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerClick: 50}, 500)
	h.seal()

	honest := ResultDigest([]byte("seg"))
	runTask(h, "idx:dweb://p:1", ws, func(int) string { return honest })

	h.call(alice, MethodClick, ClickParams{AdID: 1, URL: "dweb://p"}, 0)
	h.seal()

	st := h.chain.State()
	if st.SumBalances() != st.Supply() {
		t.Fatalf("conservation violated: balances %d != supply %d", st.SumBalances(), st.Supply())
	}
	h.checkEscrowInvariant()
}
