package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/contracts"
	"repro/internal/dht"
	"repro/internal/store"
)

// TestRoundBatchMaterializationDHTPutCounts is the O(shards) claim: a
// round that finalizes many index tasks must issue at most one
// shard-pointer read-modify-write per touched shard and exactly one
// stats bump — not one per segment per shard, as the per-task path
// paid. Asserted both through the receipt's write counters and through
// the pointer records themselves (one RMW ⇒ Version 1 even with many
// digests in the chain).
func TestRoundBatchMaterializationDHTPutCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 10
	cfg.NumBees = 3
	cfg.NumShards = 4 // concentrate segments so shards receive several each
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 100_000)
	c.Seal()

	const docs = 6 // small enough that no chain reaches the compaction threshold
	for i := 0; i < docs; i++ {
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://batch/%02d", i),
			fmt.Sprintf("batched materialization workload document %02d body content", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal() // all 6 index tasks created in one block

	rr := c.ProcessRoundReceipt()
	if rr.Materialized != docs {
		t.Fatalf("materialized = %d, want %d (one round should finalize all)", rr.Materialized, docs)
	}
	if rr.SegmentWrites != docs {
		t.Fatalf("segment writes = %d, want %d (one immutable put per task)", rr.SegmentWrites, docs)
	}
	if rr.PointerWrites > cfg.NumShards {
		t.Fatalf("pointer writes = %d over %d shards; batching must bound them by the shard count",
			rr.PointerWrites, cfg.NumShards)
	}
	if len(rr.Errors) != 0 {
		t.Fatalf("round errors: %v", rr.Errors)
	}

	// Each touched shard saw exactly one pointer write (Version 1) even
	// though several segments landed on it.
	reader := c.Peers[1].DHT()
	multi := false
	touched := 0
	for shard := 0; shard < cfg.NumShards; shard++ {
		ptr, _, err := readShardPointer(reader, shard)
		if err != nil {
			continue // shard untouched by this vocabulary
		}
		touched++
		if ptr.Version != 1 {
			t.Fatalf("shard %d pointer version = %d after one round, want 1 (one RMW)", shard, ptr.Version)
		}
		// Several segments landed on this shard if the chain holds more
		// than one run — or if the tiered writer already merged a full
		// level-0 bucket (≥ tieredFanout runs) into one higher-level run
		// inside the same RMW (Version stays 1, which makes the one-RMW
		// claim strictly stronger).
		if len(ptr.Digests) > 1 || (len(ptr.Levels) > 0 && ptr.Levels[0] > 0) {
			multi = true
		}
	}
	if touched == 0 {
		t.Fatal("no shard received any segment")
	}
	if touched != rr.PointerWrites {
		t.Fatalf("pointer writes = %d but %d shards touched", rr.PointerWrites, touched)
	}
	if !multi {
		t.Fatal("test vocabulary never put two segments on one shard; the O(K·S) vs O(S) distinction was not exercised")
	}

	// All documents counted.
	if st := c.QB.IndexStats(); st.Docs != docs {
		t.Fatalf("stats = %+v, want Docs %d", st, docs)
	}
}

// TestRoundReceiptWaveVsSerial sanity-checks the receipt's two cost
// readings: the wave makespan can never exceed the serial sum, and with
// several bees sharing a round's work it must be strictly cheaper.
func TestRoundReceiptWaveVsSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 12
	cfg.NumBees = 4
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 100_000)
	c.Seal()
	for i := 0; i < 12; i++ {
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://wave/%02d", i),
			fmt.Sprintf("wave accounting document %02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	rr := c.ProcessRoundReceipt()
	if rr.Wave().Latency > rr.Serial().Latency {
		t.Fatalf("wave %v exceeds serial %v", rr.Wave().Latency, rr.Serial().Latency)
	}
	if rr.Wave().Latency >= rr.Serial().Latency {
		t.Fatalf("wave %v not cheaper than serial %v with %d bees", rr.Wave().Latency, rr.Serial().Latency, cfg.NumBees)
	}
	if rr.Wave().Bytes != rr.Serial().Bytes {
		t.Fatalf("wave moved %d bytes, serial %d — parallelism must not change traffic", rr.Wave().Bytes, rr.Serial().Bytes)
	}
}

// TestRoundErrorsSurfaced makes the write path fail (the only provider
// of the published content goes down before the bees fetch it) and
// asserts the failure lands in the round's error summary and on the
// failing bees — not silently swallowed.
func TestRoundErrorsSurfaced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 10
	cfg.NumBees = 3
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	if _, err := c.Publish(alice, c.Peers[0], "dweb://doomed", "content nobody will reach", nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	c.Net.SetDown(c.Peers[0].Addr(), true) // the only content provider

	rr := c.ProcessRoundReceipt()
	if len(rr.Errors) == 0 {
		t.Fatal("no round errors surfaced for unreachable content")
	}
	for _, re := range rr.Errors {
		if re.Stage != "build" {
			t.Fatalf("unexpected stage %q: %v", re.Stage, re)
		}
		if re.Bee == "" || re.Task == "" {
			t.Fatalf("error missing attribution: %+v", re)
		}
		if !strings.Contains(re.Error(), re.Task) {
			t.Fatalf("rendered error %q does not name the task", re.Error())
		}
	}
	// The same failures are recorded on the bees themselves.
	recorded := 0
	for _, b := range c.Bees {
		recorded += len(b.Errs)
	}
	if recorded != len(rr.Errors) {
		t.Fatalf("bees recorded %d errors, receipt has %d", recorded, len(rr.Errors))
	}
}

// TestPublishBatchSingleTask: a batch publish creates ONE index task
// covering every page, the quorum builds one multi-doc segment, and all
// pages become searchable.
func TestPublishBatchSingleTask(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 100_000)
	c.Seal()
	pages := []BatchPage{
		{URL: "dweb://b/one", Text: "falcon migration patterns across continents"},
		{URL: "dweb://b/two", Text: "falcon nesting habits in city towers"},
		{URL: "dweb://b/three", Text: "urban towers and their many inhabitants"},
	}
	br, err := c.PublishBatch(alice, c.Peers[0], pages)
	if err != nil {
		t.Fatal(err)
	}
	c.Seal()
	if r := c.Chain.Receipt(br.Tx.Hash()); r == nil || !r.OK {
		t.Fatalf("batch tx failed: %+v", r)
	}
	rr := c.ProcessRoundReceipt()
	if open, finalized, failed := c.QB.TaskCounts(); open != 0 || finalized != 1 || failed != 0 {
		t.Fatalf("tasks open=%d finalized=%d failed=%d, want exactly one finalized batch task", open, finalized, failed)
	}
	if rr.SegmentWrites != 1 {
		t.Fatalf("segment writes = %d, want 1 (one segment for the whole batch)", rr.SegmentWrites)
	}
	if len(rr.Errors) != 0 {
		t.Fatalf("round errors: %v", rr.Errors)
	}

	fe := NewFrontend(c, c.Peers[3])
	resp, err := fe.Search("falcon", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("falcon results = %+v, want the two falcon pages", resp.Results)
	}
	st := c.QB.IndexStats()
	if st.Docs != len(pages) {
		t.Fatalf("stats docs = %d, want %d", st.Docs, len(pages))
	}
}

// TestPublishBatchAtomicRejection: a batch containing a page owned by
// someone else is refused — at pre-flight, before any content is
// stored or block sealed — and even a batch transaction that reaches
// the contract directly (bypassing pre-flight) is rejected atomically,
// registering none of its pages.
func TestPublishBatchAtomicRejection(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 10_000)
	bob := c.NewAccount("bob", 10_000)
	c.Seal()
	if _, err := c.Publish(alice, c.Peers[0], "dweb://alices", "belongs to alice", nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	c.RunUntilIdle(4)

	heightBefore := c.Chain.Height()
	_, err := c.PublishBatch(bob, c.Peers[1], []BatchPage{
		{URL: "dweb://bobs/new", Text: "a fresh page from bob"},
		{URL: "dweb://alices", Text: "bob tries to overwrite alice"},
	})
	if !errors.Is(err, ErrBatchInvalid) {
		t.Fatalf("pre-flight err = %v, want ErrBatchInvalid", err)
	}
	if c.Chain.Height() != heightBefore {
		t.Fatal("rejected batch advanced the chain")
	}
	if _, err := c.PublishBatch(bob, c.Peers[1], []BatchPage{
		{URL: "dweb://dup", Text: "a"}, {URL: "dweb://dup", Text: "b"},
	}); !errors.Is(err, ErrBatchInvalid) {
		t.Fatalf("duplicate-URL pre-flight err = %v, want ErrBatchInvalid", err)
	}

	// Contract-level atomicity: the same foreign-URL batch submitted
	// directly (no pre-flight) must fail on chain with no partial
	// registration.
	tx := c.SubmitCall(bob, contracts.MethodPublishBatch, contracts.PublishBatchParams{
		Pages: []contracts.PublishParams{
			{URL: "dweb://bobs/new", CID: "aa"},
			{URL: "dweb://alices", CID: "bb"},
		},
	}, 0)
	c.Seal()
	r := c.Chain.Receipt(tx.Hash())
	if r == nil || r.OK {
		t.Fatalf("batch with foreign URL must fail on chain: %+v", r)
	}
	if _, ok := c.QB.Page("dweb://bobs/new"); ok {
		t.Fatal("rejected batch leaked a page registration")
	}
	if rec, _ := c.QB.Page("dweb://alices"); rec.Owner != alice.Address() {
		t.Fatal("ownership changed through a rejected batch")
	}
}

// TestBatchRepublishCountsStatsOncePerVersion: batch entries carry the
// page Seq, so re-published pages do not inflate the document count.
func TestBatchRepublishCountsStatsOncePerVersion(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	first := []BatchPage{
		{URL: "dweb://r/a", Text: "first version alpha words"},
		{URL: "dweb://r/b", Text: "first version beta words"},
	}
	if _, err := c.PublishBatch(alice, c.Peers[0], first); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	c.RunUntilIdle(4)

	second := []BatchPage{
		{URL: "dweb://r/a", Text: "second version alpha rewritten"}, // Seq 2: no stats bump
		{URL: "dweb://r/c", Text: "a brand new gamma page"},         // Seq 1: counted
	}
	if _, err := c.PublishBatch(alice, c.Peers[0], second); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	c.RunUntilIdle(4)

	st := c.QB.IndexStats()
	if st.Docs != 3 {
		t.Fatalf("stats docs = %d, want 3 (republish must not double-count)", st.Docs)
	}
	// Freshness holds across batch republish too.
	fe := NewFrontend(c, c.Peers[2])
	if resp, _ := fe.Search("alpha words", 10); len(resp.Results) != 0 {
		t.Fatalf("stale postings survived batch republish: %+v", resp.Results)
	}
	if resp, _ := fe.Search("alpha rewritten", 10); len(resp.Results) != 1 {
		t.Fatalf("new version not searchable: %+v", resp.Results)
	}
}

// dhtNodes lists every DHT node of the deployment: DWeb peers first, then
// bees.
func dhtNodes(c *Cluster) []*dht.Node {
	var out []*dht.Node
	for _, p := range c.Peers {
		out = append(out, p.DHT())
	}
	for _, b := range c.Bees {
		out = append(out, b.Peer.DHT())
	}
	return out
}

// clusterDigest folds every node's Digest, in dhtNodes order: routing
// tables, values and provider sets of the whole deployment.
func clusterDigest(c *Cluster) string {
	h := sha256.New()
	for _, n := range dhtNodes(c) {
		d := n.Digest()
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWriteDeterminismAcrossGOMAXPROCS: a round's simulated RPCs run on
// one goroutine in a fixed order, and its builds — segments, ranks and
// compaction merges — are pure, so neither the scheduler nor the number
// of CPUs may reach what a round costs or what it leaves behind. Boots at
// each of GOMAXPROCS 1, 2 and 8 — seed 1, maintenance on — must produce
// the same receipts, latencies included, and the same state on every
// node: two boots a setting of one 1 000-page batch, which compacts
// nothing, and one of seventeen 16-page rounds, which take every shard's
// chain to tier 2 through merges started before their passes read them
// (level 0 from the segment-write wave, tier 1 from the round's start).
func TestWriteDeterminismAcrossGOMAXPROCS(t *testing.T) {
	schedules := []struct {
		name    string
		batches [][]BatchPage
		boots   int
	}{
		{"one-batch", corpusBatches(1, 1, 1000), 2},
		{"compacting", corpusBatches(1, 17, 16), 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			boot := func() (receipts, digest string, write WriteStats) {
				cfg := DefaultConfig()
				cfg.Maintenance = true
				c := NewCluster(cfg)
				owner := c.NewAccount("writer", 1<<40)
				c.Seal()
				var rs strings.Builder
				for round, pages := range sc.batches {
					rr, err := c.IndexBatch(owner, pages)
					if err != nil || len(rr.Errors) > 0 {
						t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
					}
					fmt.Fprintf(&rs, "%+v\n", rr)
				}
				return rs.String(), clusterDigest(c), c.WriteStats()
			}
			var wantReceipts, wantDigest string
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for run := 0; run < sc.boots; run++ {
					receipts, digest, write := boot()
					if wantReceipts == "" {
						wantReceipts, wantDigest = receipts, digest
						if len(sc.batches) > 1 && (len(write.SegmentsPerTier) < 3 || write.SegmentsPerTier[2] == 0) {
							t.Fatalf("tiers %v: the chains never reached tier 2", write.SegmentsPerTier)
						}
						continue
					}
					if receipts != wantReceipts {
						t.Fatalf("GOMAXPROCS=%d run %d: receipts diverged:\n got %s\nwant %s", procs, run, receipts, wantReceipts)
					}
					if digest != wantDigest {
						t.Fatalf("GOMAXPROCS=%d run %d: DHT state diverged: %s, want %s", procs, run, digest, wantDigest)
					}
				}
			}
		})
	}
}

// pinnedForget is what TestWriteBeesForgetResolvedTasks's run produced
// when bees kept every result they ever built: a digest of every round's
// receipt, and clusterDigest. Re-recorded when converging walks went to
// arrival order, again when hinted provider discovery became K-wide, and
// again when a served hint stopped discovering and its announce began to
// walk: each time the receipts' costs moved, and so did the cluster, whose
// walked writes land on the contacts their walks asked (and the routing
// tables those walks teach). Re-recorded again when every write began to
// land on its writer too, and again when shard pointers began to carry
// each run's size: more pointer bytes, so the write costs moved.
var pinnedForget = struct{ receipts, digest string }{
	receipts: "3d72d2030aa02647d40f8dbae5a11341a4725a929033301628b425f20346b373",
	digest:   "dd9cc74fb431f5899086894c33247be584f49d6f06d495ca8481d9a8a2bc4b82",
}

// TestWriteBeesForgetResolvedTasks: a bee drops a task's result once the
// task resolves — won, lost (a colluding bee is outvoted on every task
// it shares) or failed — so after RunUntilIdle no bee holds a result,
// and dropping them moves nothing: the rounds' receipts and every node's
// state equal the recording.
func TestWriteBeesForgetResolvedTasks(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	c.Bees[0].Colluding = true
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	h := sha256.New()
	for _, pages := range corpusBatches(cfg.Seed, 6, 8) {
		rr, err := c.IndexBatch(owner, pages)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%+v\n", rr)
	}
	c.StartRankEpoch(4)
	for round := 0; round < 8; round++ {
		fmt.Fprintf(h, "%+v\n", c.ProcessRoundReceipt())
		if open, _, _ := c.QB.TaskCounts(); open == 0 {
			break
		}
	}
	for _, b := range c.Bees {
		if len(b.pending) != 0 {
			t.Errorf("bee %s still holds %d results after the run went idle", b.Name, len(b.pending))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedForget.receipts {
		t.Errorf("receipts digest %s, recorded %s", got, pinnedForget.receipts)
	}
	if got := clusterDigest(c); got != pinnedForget.digest {
		t.Errorf("cluster digest %s, recorded %s", got, pinnedForget.digest)
	}
}

// settleRound is ProcessRoundReceipt after its commit wave, for a round
// that needs no janitor and runs no maintenance: seal, reveal, seal,
// materialize.
func settleRound(c *Cluster, r *RoundReceipt) {
	c.Seal()
	for _, b := range c.Bees {
		b.RevealPhase()
	}
	c.Seal()
	c.materializePass(r)
}

// pendingByTask groups every bee's pending results by task, bees in
// cluster order.
func pendingByTask(c *Cluster) map[string][][]byte {
	out := make(map[string][][]byte)
	for _, b := range c.Bees {
		for id, pr := range b.pending {
			out[id] = append(out[id], pr.result)
		}
	}
	return out
}

// pinnedQuorumBuild is what TestWriteQuorumBuildsOnce's two rounds
// produced when every assignee built its own result: a digest of both
// receipts, and clusterDigest. Re-recorded as pinnedForget was.
var pinnedQuorumBuild = struct{ receipts, digest string }{
	receipts: "7694d6d81e8bc58206fa04d1d741daf1b66867aa43309405c29bee2657068a42",
	digest:   "3273d1c9113ab56c8ca1701599754bc255c0e6ec730db85436d9f2dedf3caa92",
}

// TestWriteQuorumBuildsOnce: the assignees of a task whose inputs are
// byte-identical share one build. A 16-page batch goes to a quorum of
// three honest bees, which commit one result slice between them; a rank
// epoch of four partitions runs four rank builds, not twelve. Sharing is
// CPU work only: the receipts and every node's state equal the
// recording, and since nothing simulated aliases the shared bytes,
// flipping one afterwards moves no node's Digest.
func TestWriteQuorumBuildsOnce(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	if _, err := c.PublishBatch(owner, c.Peers[0], corpusBatches(cfg.Seed, 1, 16)[0]); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	h := sha256.New()
	var shared []byte
	for round, tasks := range []int{1, 4} {
		if round == 1 {
			c.StartRankEpoch(tasks)
		}
		var r RoundReceipt
		builds := newBuildSet()
		c.commitWave(&r, builds)
		byTask := pendingByTask(c)
		if len(byTask) != tasks {
			t.Fatalf("round %d: %d tasks pending, want %d", round, len(byTask), tasks)
		}
		for id, results := range byTask {
			if len(results) != cfg.Contract.Quorum {
				t.Fatalf("round %d: task %s has %d results, want %d", round, id, len(results), cfg.Contract.Quorum)
			}
			for _, res := range results[1:] {
				if &res[0] != &results[0][0] {
					t.Errorf("round %d: task %s was built more than once", round, id)
				}
			}
			if round == 0 {
				shared = results[0]
			}
		}
		settleRound(c, &r)
		if len(r.Errors) > 0 || r.Materialized != tasks {
			t.Fatalf("round %d: materialized %d, errors %v", round, r.Materialized, r.Errors)
		}
		fmt.Fprintf(h, "%+v\n", r)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedQuorumBuild.receipts {
		t.Errorf("receipts digest %s, recorded %s", got, pinnedQuorumBuild.receipts)
	}
	if got := clusterDigest(c); got != pinnedQuorumBuild.digest {
		t.Errorf("cluster digest %s, recorded %s", got, pinnedQuorumBuild.digest)
	}
	shared[len(shared)/2] ^= 0xff
	if got := clusterDigest(c); got != pinnedQuorumBuild.digest {
		t.Errorf("flipping a byte of the shared result moved the cluster digest to %s", got)
	}
}

// pinnedTampered is what TestWriteTamperedLocalCopyBuildsAlone's round
// produced when every assignee built its own result: each assignee's
// vote in bee order, a digest of the receipt, and clusterDigest. The
// receipt and clusterDigest were re-recorded as pinnedForget's were;
// the votes did not move.
var pinnedTampered = struct {
	votes           []string
	receipt, digest string
}{
	votes: []string{
		"bee-001 won=false 879081e715fe1d2a 1978",
		"bee-002 won=true a35b24d8afa24bbb 2079",
		"bee-003 won=true a35b24d8afa24bbb 2079",
	},
	receipt: "1dc9d7eb9ed0a06065279636112dbff6db95c0a1a71cfaeaddcf4de368f91491",
	digest:  "e58a8d94b31275e33d83d446e87490441e033ced3e868fac99473c2ae06cecb3",
}

// TestWriteTamperedLocalCopyBuildsAlone: a build is shared by the bytes
// each bee fetched, not by the CIDs it asked for. One assignee holds a
// cached copy of a page whose block was overwritten in its store; it
// reads that copy without re-verifying it (Peer.assemble verifies only
// the blocks it fetches), so it must build alone from the bytes it
// holds, commit its own digest and lose the vote to the two honest
// assignees.
func TestWriteTamperedLocalCopyBuildsAlone(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	publisher := c.Peers[0]
	if _, err := c.PublishBatch(owner, publisher, corpusBatches(cfg.Seed, 1, 16)[0]); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	var task contracts.Task
	var victim *WorkerBee
	for _, b := range c.Bees {
		if open := c.QB.OpenTasksFor(b.Account.Address()); len(open) == 1 && victim == nil {
			task, victim = open[0], b
		}
	}
	if victim == nil {
		t.Fatal("setup: no bee was assigned the batch")
	}
	root, err := cidFromHex(task.Pages[0].CID)
	if err != nil {
		t.Fatal(err)
	}
	// The victim caches every block of the first page, then one of them
	// is overwritten with a leaf of other text.
	block, ok := publisher.Blocks().Get(root)
	if !ok {
		t.Fatal("setup: the publisher does not hold the page")
	}
	victim.Peer.Blocks().PutCached(root, block)
	leaf := root
	_, children, _, err := store.DecodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range children {
		cb, _ := publisher.Blocks().Get(child)
		victim.Peer.Blocks().PutCached(child, cb)
		leaf = child
	}
	if !victim.Peer.Blocks().Corrupt(leaf, store.EncodeLeaf([]byte("tampered copy of a page"))) {
		t.Fatal("setup: nothing to corrupt")
	}

	rr := c.ProcessRoundReceipt()
	if len(rr.Errors) > 0 || rr.Materialized != 1 {
		t.Fatalf("materialized %d, errors %v", rr.Materialized, rr.Errors)
	}
	final, _ := c.QB.TaskInfo(task.ID)
	if final.Status != contracts.StatusFinalized || final.Won(victim.Account.Address()) {
		t.Fatalf("task %s: status %v, the tampered assignee won=%v", task.ID, final.Status, final.Won(victim.Account.Address()))
	}
	var votes []string
	for _, b := range c.Bees {
		if v, ok := final.Reveals[b.Account.Address()]; ok {
			votes = append(votes, fmt.Sprintf("%s won=%v %.16s %d", b.Name, final.Won(b.Account.Address()), v.Digest, v.Tokens))
		}
	}
	if !reflect.DeepEqual(votes, pinnedTampered.votes) {
		t.Errorf("votes %q, recorded %q", votes, pinnedTampered.votes)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", rr)))); got != pinnedTampered.receipt {
		t.Errorf("receipt digest %s, recorded %s", got, pinnedTampered.receipt)
	}
	if got := clusterDigest(c); got != pinnedTampered.digest {
		t.Errorf("cluster digest %s, recorded %s", got, pinnedTampered.digest)
	}
}
