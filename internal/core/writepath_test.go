package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/oracle"
	"repro/internal/query"
)

// TestWriteTieredMatchesOracle is the tiered-compaction safety
// property: across seeds and round counts, a cluster on the tiered
// write path answers every query — results, scores, rank blend, totals —
// exactly as the oracle does over the same pages, fed the cluster's
// finalized ranks, and its collection statistics are the oracle's. The
// segment chains differ from round to round as runs merge, but
// index.Merge over any of them must yield the one logical index. Runs
// under CI's -count=2 re-run pattern, so it also guards against residual
// global state.
func TestWriteTieredMatchesOracle(t *testing.T) {
	queries := []string{"workload", "payload body", "document"}
	for _, seed := range []uint64{1, 7} {
		for _, rounds := range []int{2, 5} {
			t.Run(fmt.Sprintf("seed=%d,rounds=%d", seed, rounds), func(t *testing.T) {
				run := driveWritePath(t, seed, rounds, queries)
				for i, q := range queries {
					root, err := oracle.Flat(q, query.KindAnd)
					if err != nil {
						t.Fatal(err)
					}
					if diff := oracleDiff(run.responses[i], run.oracle.Search(root, run.ranks, 0, run.docs)); diff != "" {
						t.Fatalf("query %q: %s", q, diff)
					}
				}
				if docs, tokens := run.oracle.Stats(); run.stats.Docs != docs || run.stats.Tokens != tokens {
					t.Fatalf("index stats %+v, oracle %d docs %d tokens", run.stats, docs, tokens)
				}
				// At five rounds the workload overflows level-0 buckets, so
				// the property must have been exercised across real merges.
				if rounds >= 5 && run.write.Compactions == 0 {
					t.Fatalf("tiered run never compacted; property not exercised: %+v", run.write)
				}
			})
		}
	}
}

// oracleDiff describes how a response differs from the oracle's answer,
// or returns "" when they agree on the total and every result's URL,
// score and rank.
func oracleDiff(resp SearchResponse, want oracle.Response) string {
	if resp.Total != want.Total || len(resp.Results) != len(want.Results) {
		return fmt.Sprintf("total %d with %d results, oracle %d with %d", resp.Total, len(resp.Results), want.Total, len(want.Results))
	}
	for i, r := range resp.Results {
		if got := (oracle.Result{URL: r.URL, Score: r.Score, Rank: r.Rank}); got != want.Results[i] {
			return fmt.Sprintf("result %d = %+v, oracle %+v", i, got, want.Results[i])
		}
	}
	return ""
}

// writePathRun is what the property test observes of one run.
type writePathRun struct {
	responses []SearchResponse
	ranks     map[string]float64
	stats     contracts.IndexStats
	write     WriteStats
	oracle    *oracle.Oracle // fed the same pages
	docs      int
}

// driveWritePath boots a cluster, ingests a linked corpus over the given
// number of publish rounds, finalizes a full rank epoch, and snapshots
// everything a reader can observe.
func driveWritePath(t *testing.T, seed uint64, rounds int, queries []string) writePathRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = 10
	cfg.NumBees = 3
	cfg.NumShards = 2 // concentrate chains so merges actually fire
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 1_000_000)
	c.Seal()
	orc := oracle.New(cfg.RankWeight)

	doc := 0
	for r := 0; r < rounds; r++ {
		for j := 0; j < 6; j++ {
			url := fmt.Sprintf("dweb://w/%03d", doc)
			var links []string
			if doc > 0 {
				links = append(links, "dweb://w/000")
				links = append(links, fmt.Sprintf("dweb://w/%03d", doc-1))
			}
			text := fmt.Sprintf("write path workload document %03d payload body round %d", doc, r)
			if _, err := c.Publish(alice, c.Peers[doc%len(c.Peers)], url, text, links); err != nil {
				t.Fatal(err)
			}
			orc.Publish(url, text)
			doc++
		}
		c.Seal()
		c.RunUntilIdle(6)
	}
	c.StartRankEpoch(2)
	c.RunUntilIdle(10)

	run := writePathRun{ranks: c.QB.PageRanks(), write: c.WriteStats(), stats: c.QB.IndexStats(), oracle: orc, docs: doc}
	fe := NewFrontend(c, c.Peers[2])
	for _, q := range queries {
		resp, err := fe.Search(q, doc)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		run.responses = append(run.responses, resp)
	}
	return run
}

// parentMaterialize is the pointer side of the materialize phase of each
// of the twelve rounds TestWriteOneWalkPerRMW drives —
// MaterializeSerial.Msgs and MaterializeWave.Latency in ms — recorded at
// the commit before read-modify-writes reused their read's walk: every
// pointer RMW walked twice (Get, then Put). That commit also bumped a
// collection-statistics record after the shard wave (24 msgs and
// 511–556 ms a round); the record is gone, so its share is taken out of
// the recording. Rounds 3, 7 and 11 compact every shard.
var parentMaterialize = [12]struct{ msgs, waveMs int }{
	{229, 1245}, {229, 1224}, {218, 1135}, {387, 2033}, {219, 1301}, {219, 1300},
	{219, 1244}, {384, 1858}, {219, 1227}, {219, 1372}, {219, 1270}, {385, 2214},
}

// TestWriteOneWalkPerRMW is the one-walk-per-write claim, measured where
// it is paid: over twelve 8-page batch rounds on the default cluster
// (three level-0 merges per shard) every round rewrites all 8 pointers,
// and the materialize traffic per pointer write sits at least 30 % below
// the parent's on every plain round. A compacting round adds the merge's
// own segment reads and one segment put per shard — immutable-record
// traffic this change does not touch — so there the bar is the same
// absolute saving, not the same ratio. The phase's makespan falls by at
// least 45 % on every plain round: shorter legs, and every leg's quorum
// read overlapping the segment puts. A compacting round has a bar of its
// own, 40 %: its legs carry a merge, whose input runs are fetched as one
// wave. Each pointer ends at Version = rounds on every one of the K
// closest replicas (one accepted write per round, none lost to a stale
// walk), and the wave reading of every round stays within the serial
// one.
func TestWriteOneWalkPerRMW(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 10_000_000)
	c.Seal()
	const rounds = len(parentMaterialize)

	plainSaving := 0
	for round, pages := range corpusBatches(cfg.Seed, rounds, 8) {
		rr, err := c.IndexBatch(owner, pages)
		if err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
		if rr.PointerWrites != cfg.NumShards {
			t.Fatalf("round %d: %d pointer writes; the corpus batch must touch every shard", round, rr.PointerWrites)
		}
		writes := rr.PointerWrites
		got, parent := rr.MaterializeSerial.Msgs, parentMaterialize[round].msgs
		switch rr.Compactions {
		case 0:
			if float64(got) > 0.70*float64(parent) {
				t.Errorf("round %d: %.2f msgs per pointer write, parent %.2f — less than 30 %% saved",
					round, float64(got)/float64(writes), float64(parent)/float64(writes))
			}
			plainSaving = parent - got
		case cfg.NumShards:
			if parent-got < plainSaving {
				t.Errorf("compacting round %d: saved %d msgs against the parent, a plain round saves %d",
					round, parent-got, plainSaving)
			}
		default:
			t.Fatalf("round %d: %d compactions, want none or one per shard", round, rr.Compactions)
		}
		bar := 0.55
		if rr.Compactions > 0 {
			bar = 0.60
		}
		if wave, was := rr.MaterializeWave.Latency, time.Duration(parentMaterialize[round].waveMs)*time.Millisecond; float64(wave) > bar*float64(was) {
			t.Errorf("round %d (%d compactions): materialize makespan %v, parent %v — less than %.0f %% saved",
				round, rr.Compactions, wave, was, 100*(1-bar))
		}

		if rr.Wave().Latency > rr.Serial().Latency || rr.Wave().Msgs != rr.Serial().Msgs || rr.Wave().Bytes != rr.Serial().Bytes {
			t.Fatalf("round %d: wave %+v vs serial %+v", round, rr.Wave(), rr.Serial())
		}
	}
	if ws := c.WriteStats(); ws.Compactions != 3*cfg.NumShards {
		t.Fatalf("compactions = %d, want three per shard", ws.Compactions)
	}

	reader := c.Peers[3].DHT()
	for shard := 0; shard < cfg.NumShards; shard++ {
		loc, _, err := reader.Locate(context.Background(), pointerKey(shard))
		if err != nil || len(loc.Closest) != cfg.DHT.K {
			t.Fatalf("shard %d: %d closest, err=%v", shard, len(loc.Closest), err)
		}
		// A reader never lists itself, so when it is one of the K closest
		// its own view shows the other K-1 and one farther non-holder.
		for _, r := range loc.Closest {
			if r.Held && r.Seq != uint64(rounds) {
				t.Errorf("shard %d: replica %s holds stale seq %d, want %d", shard, r.Addr, r.Seq, rounds)
			}
		}
		if loc.Replicas() < cfg.DHT.K-1 {
			t.Errorf("shard %d: %d of the %d closest hold the pointer", shard, loc.Replicas(), cfg.DHT.K)
		}
		if ptr, err := decodeShardPointer(loc.Value); err != nil || ptr.Version != uint64(rounds) {
			t.Errorf("shard %d: pointer version %d err=%v, want %d", shard, ptr.Version, err, rounds)
		}
	}
}

// TestWriteRefusedStoreSurfaces: a write no replica keeps is not a write.
// A round that finds one shard's pointer undecodable at a high sequence
// on every replica reports that shard (stage "shard-append") instead of
// counting a pointer write, and the other shards' legs are untouched;
// and a STORE every replica refuses — each holds a newer sequence than
// the writer computed — is reported by the read-modify-write itself.
func TestWriteRefusedStoreSurfaces(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 100_000)
	c.Seal()
	const text = "refused store document"
	publish := func(i int) RoundReceipt {
		t.Helper()
		if _, err := c.Publish(alice, c.Peers[i], fmt.Sprintf("dweb://refused/%d", i), text, nil); err != nil {
			t.Fatal(err)
		}
		c.Seal()
		return c.ProcessRoundReceipt()
	}
	touched := make(map[int]bool)
	for _, term := range index.AnalyzeQuery(text) {
		touched[index.ShardOf(term, c.cfg.NumShards)] = true
	}
	if rr := publish(0); rr.PointerWrites != len(touched) || len(touched) < 2 || len(rr.Errors) > 0 {
		t.Fatalf("healthy round: %d pointer writes over %d shards, errors %v", rr.PointerWrites, len(touched), rr.Errors)
	}

	bad := index.ShardOf(index.AnalyzeQuery(text)[0], c.cfg.NumShards)
	for _, n := range dhtNodes(c) {
		n.StoreLocal(pointerKey(bad), []byte("not json"), 50)
	}
	rr := publish(1)
	if rr.PointerWrites != len(touched)-1 {
		t.Fatalf("%d pointer writes, want the %d healthy shards and not the refused one", rr.PointerWrites, len(touched)-1)
	}
	if len(rr.Errors) != 1 || rr.Errors[0].Stage != "shard-append" || rr.Errors[0].Shard != bad {
		t.Fatalf("round errors = %v, want exactly one at stage shard-append on shard %d", rr.Errors, bad)
	}
	for shard := range touched {
		if shard == bad {
			continue
		}
		if ptr, _, err := readShardPointer(c.Peers[2].DHT(), shard); err != nil || len(ptr.Digests) != 2 {
			t.Fatalf("healthy shard %d after the round: %+v err=%v, want both segments", shard, ptr, err)
		}
	}
	if st := c.QB.IndexStats(); st.Docs != 2 {
		t.Fatalf("on-chain stats %+v: both pages were voted in, whatever one pointer's replicas hold", st)
	}

	// The helper itself: a mutation that comes back with an old sequence.
	cost, wrote, err := rmw(c.Bees[0].Peer.DHT(), pointerKey(bad), func(cur []byte) ([]byte, uint64, netsim.Cost, error) {
		if string(cur) != "not json" {
			t.Fatalf("rmw read %q", cur)
		}
		return encodeJSON(ShardPointer{Version: 49}), 49, netsim.Cost{}, nil
	})
	if err == nil || wrote || cost.Read.Msgs == 0 || cost.Write.Msgs == 0 {
		t.Fatalf("stale rmw: wrote=%v err=%v after %d msgs read, %d written", wrote, err, cost.Read.Msgs, cost.Write.Msgs)
	}
}

// pinnedCompaction is what TestWriteCompactionPinned's deployment holds
// after its sixty-six rounds, recorded when every shard's level-0 merge
// still decoded its runs in full and restricted the merged run after
// the merge: clusterDigest over every node, and the write ledger.
var pinnedCompaction = struct {
	digest string
	write  WriteStats
}{
	digest: "1a8b7aa7f3944483fc0a261f3f6edede4588b8aabea09adcf6aa5c0e5ed47ded",
	write: WriteStats{
		Rounds: 66, SegmentWrites: 66, PointerWrites: 528, Compactions: 168,
		IngestedBytes: 1_232_587, CompactedBytes: 2_351_627,
		SegmentsPerTier: []int{16, 0, 0, 8},
	},
}

// TestWriteCompactionPinned: sixty-six 16-page batch rounds on the
// default cluster take every shard's chain up to tier 3 (a pass merges
// one level, so the third promotion lands two rounds after the 64th
// level-0 run). How a compaction decodes and restricts its input runs is CPU
// work only, so the DHT state of every node and the write ledger —
// merged-run bytes and digests included — must equal the recording.
func TestWriteCompactionPinned(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	for round, pages := range corpusBatches(cfg.Seed, 66, 16) {
		rr, err := c.IndexBatch(owner, pages)
		if err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
	}
	ws := c.WriteStats()
	if len(ws.SegmentsPerTier) < 4 {
		t.Fatalf("tiers %v: the chains never reached tier 3", ws.SegmentsPerTier)
	}
	if got := clusterDigest(c); got != pinnedCompaction.digest {
		t.Errorf("cluster digest %s, recorded %s", got, pinnedCompaction.digest)
	}
	if !reflect.DeepEqual(ws, pinnedCompaction.write) {
		t.Errorf("write stats %#v, recorded %#v", ws, pinnedCompaction.write)
	}
}

// TestWriteCompactionForgedRunFailsOneShard: a pass decodes a run it
// has already decoded only once, but every compactor still fetches the
// run itself and checks its digest. Three 8-page batches leave three
// level-0 runs on every shard; a fourth round publishes two one-term
// pages as two tasks with different writers, so exactly two shards —
// low, then high — reach four runs and merge. The high shard's writer
// holds forged (but decodable) bytes under the first run's key, the low
// shard's writer the genuine ones. The low shard decodes the run and
// compacts; the high shard's fetch fails hash verification in the same
// pass, which is its merge's error (stage "compact"), and its append
// still lands.
func TestWriteCompactionForgedRunFailsOneShard(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	for round, pages := range corpusBatches(cfg.Seed, 3, 8) {
		if rr, err := c.IndexBatch(owner, pages); err != nil || len(rr.Errors) > 0 || rr.PointerWrites != cfg.NumShards {
			t.Fatalf("round %d: err=%v errors=%v, %d pointer writes", round, err, rr.Errors, rr.PointerWrites)
		}
	}

	// One word per shard, low shard first.
	var words []string
	var shards []int
	for _, w := range []string{"apple", "banana", "cherry", "damson", "elder", "fig", "grape", "hazel", "kiwi", "lemon", "mango"} {
		s := index.ShardOf(index.AnalyzeQuery(w)[0], cfg.NumShards)
		if len(shards) == 0 || s > shards[0] {
			words, shards = append(words, w), append(shards, s)
		}
		if len(shards) == 2 {
			break
		}
	}
	if len(shards) < 2 {
		t.Fatalf("setup: no word hashes above shard %d", shards[0])
	}
	low, high := shards[0], shards[1]
	writerOf := make(map[string]*WorkerBee) // page URL → its task's writer
	for i, w := range words {
		url := fmt.Sprintf("dweb://forged/%d", i)
		if _, err := c.PublishBatch(owner, c.Peers[0], []BatchPage{{URL: url, Text: w + " " + w}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	// Every assignee is honest and wins, so a task's designated writer
	// is its first assignee in address order.
	for _, b := range c.Bees {
		for _, task := range c.QB.OpenTasksFor(b.Account.Address()) {
			assignees := append([]chain.Address(nil), task.Assignees...)
			sort.Slice(assignees, func(i, j int) bool { return assignees[i].String() < assignees[j].String() })
			entries, _ := contracts.BatchEntries(task)
			for _, bee := range c.Bees {
				if bee.Account.Address() == assignees[0] {
					writerOf[entries[0].URL] = bee
				}
			}
		}
	}
	lowWriter, highWriter := writerOf["dweb://forged/0"], writerOf["dweb://forged/1"]
	if lowWriter == nil || highWriter == nil || lowWriter == highWriter {
		t.Fatalf("setup: the two pages need distinct writers, got %v and %v", lowWriter, highWriter)
	}

	before, _, err := readShardPointer(c.Peers[2].DHT(), high)
	if err != nil || len(before.Digests) != 3 {
		t.Fatalf("high shard before the round: %+v err=%v", before, err)
	}
	run := before.Digests[0]
	key := dht.KeyOfString(index.SegmentKey(run))
	genuine, _, err := c.Peers[2].DHT().GetImmutable(key)
	if err != nil {
		t.Fatal(err)
	}
	forged := index.NewBuilder(1)
	forged.Add(index.DocIDOf("dweb://forged/spam"), "forged run")
	lowWriter.Peer.DHT().StoreLocal(key, genuine, 0)
	highWriter.Peer.DHT().StoreLocal(key, forged.Build().Encode(), 0)

	rr := c.ProcessRoundReceipt()
	if len(rr.Errors) != 1 || rr.Errors[0].Stage != "compact" || rr.Errors[0].Shard != high ||
		!strings.Contains(rr.Errors[0].Err.Error(), "hash verification") {
		t.Fatalf("round errors = %v, want one hash-verification failure at stage compact on shard %d", rr.Errors, high)
	}
	if rr.Compactions != 1 || rr.PointerWrites != 2 {
		t.Fatalf("%d compactions, %d pointer writes; want the low shard's merge and both appends", rr.Compactions, rr.PointerWrites)
	}
	for shard, want := range map[int][]int{low: {1}, high: {0, 0, 0, 0}} {
		ptr, _, err := readShardPointer(c.Peers[2].DHT(), shard)
		if err != nil || !reflect.DeepEqual(ptr.Levels, want) {
			t.Fatalf("shard %d after the round: levels %v err=%v, want %v", shard, ptr.Levels, err, want)
		}
	}
}
