package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/dht"
	"repro/internal/fanout"
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
		loc, _, err := reader.Locate(context.Background(), pointerKey(shard), nil)
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
// the merge: clusterDigest over every node, and the write ledger. The
// digest was re-recorded when a walked write began to store along its
// walk, leaving displaced copies beside each record's K replicas, again
// when hinted provider discovery became K-wide, and again when a served
// hint stopped discovering, each time teaching routing tables contacts
// that move where later walked writes land, again when every write
// began to land on its writer too, and again when shard pointers began
// to carry each run's size; the ledger did not move.
var pinnedCompaction = struct {
	digest string
	write  WriteStats
}{
	digest: "74dc588e5e8ca8216559cbd25be95e98c0908a3b9c96ababf6347f337bf5ae77",
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

// TestWriteBigBatchMovesUp is the size rule's gain: a 1 000-page batch,
// then twenty-four 32-page rounds on the default cluster. The batch's run
// is many times a round's, so at each level it outweighs the rest and
// moves up unrewritten (dueMerge). Count tiers rewrote it at the first
// level-0 merge and again at the first level-1 merge, for a write
// amplification of 2.53; here it stays at most 1.75. No merge rewrites
// the batch's run while every other run of its level is under a third of
// its size, a pass still writes each pointer at most once, every round's
// answers equal internal/oracle's, and at GOMAXPROCS 1, 2 and 8 the
// receipts and every node's state agree.
func TestWriteBigBatchMovesUp(t *testing.T) {
	const bootPages, rounds, roundPages = 1000, 24, 32
	cfg := DefaultConfig()
	pages := corpusBatches(cfg.Seed, 1, bootPages+rounds*roundPages)[0]
	batches := [][]BatchPage{pages[:bootPages]}
	for at := bootPages; at < len(pages); at += roundPages {
		batches = append(batches, pages[at:at+roundPages])
	}
	first, mid, last := strings.Fields(pages[0].Text), strings.Fields(pages[bootPages/2].Text), strings.Fields(pages[len(pages)-1].Text)
	queries := []string{first[0], mid[0] + " " + mid[1], last[0] + " " + last[1]}
	boot := func() (receipts, digest string) {
		c := NewCluster(cfg)
		owner := c.NewAccount("writer", 1<<40)
		c.Seal()
		fe := NewFrontend(c, c.Peers[2])
		orc := oracle.New(cfg.RankWeight)
		var rs strings.Builder
		var batch string // the first batch's run
		promoted := false
		for round, pages := range batches {
			before := slices.Clone(c.written)
			rr, err := c.IndexBatch(owner, pages)
			if err != nil || len(rr.Errors) > 0 || rr.SegmentWrites != 1 || rr.PointerWrites > cfg.NumShards {
				t.Fatalf("round %d: err=%v round errors=%v, %d segment writes, %d pointer writes", round, err, rr.Errors, rr.SegmentWrites, rr.PointerWrites)
			}
			fmt.Fprintf(&rs, "%+v\n", rr)
			if round == 0 {
				batch = c.written[0].Digests[0]
			}
			for s, ptr := range before {
				at := slices.Index(ptr.Digests, batch)
				if at < 0 {
					continue
				}
				if after := slices.Index(c.written[s].Digests, batch); after >= 0 {
					promoted = promoted || c.written[s].levelOf(after) > 0
					continue
				}
				// The batch's run was merged this round: some run of its
				// level, this round's own if the level is 0, was at least
				// a third of its size.
				level, size := ptr.levelOf(at), ptr.sizeOf(at)
				big := level == 0 && 3*rr.IngestedBytes >= int64(size)
				for i := range ptr.Digests {
					big = big || i != at && ptr.levelOf(i) == level && 3*ptr.sizeOf(i) >= size
				}
				if !big {
					t.Fatalf("round %d: shard %d merged the batch's %d-byte level-%d run with runs under a third its size: %v", round, s, size, level, ptr.Sizes)
				}
			}
			for _, p := range pages {
				orc.Publish(p.URL, p.Text)
			}
			for _, q := range queries {
				resp, err := fe.Search(q, 10)
				if err != nil {
					t.Fatalf("round %d query %q: %v", round, q, err)
				}
				root, err := oracle.Flat(q, query.KindAnd)
				if err != nil {
					t.Fatal(err)
				}
				if diff := oracleDiff(resp, orc.Search(root, c.QB.PageRanks(), 0, 10)); diff != "" {
					t.Fatalf("round %d query %q: %s", round, q, diff)
				}
			}
		}
		if !promoted {
			t.Fatal("the batch's run never moved up a level; the rule was not exercised")
		}
		if amp := c.WriteStats().Amplification(); amp > 1.75 {
			t.Fatalf("write amplification %.3f, want at most 1.75 (count tiers: 2.53)", amp)
		}
		return rs.String(), clusterDigest(c)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantReceipts, wantDigest string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		receipts, digest := boot()
		if wantReceipts == "" {
			wantReceipts, wantDigest = receipts, digest
			continue
		}
		if receipts != wantReceipts || digest != wantDigest {
			t.Fatalf("GOMAXPROCS=%d: receipts or DHT state diverged from GOMAXPROCS=1", procs)
		}
	}
}

// TestWriteDueMergeSizeRule: at the lowest full level, each leading run
// that outweighs the level's later runs together moves up, and the rest
// merge only if tieredFanout of them are left. Runs of like size, and
// runs of unknown size (a pointer written before sizes were kept), merge
// by count as before.
func TestWriteDueMergeSizeRule(t *testing.T) {
	dg := index.DigestOf([]byte("run"))
	cases := []struct {
		levels, sizes     []int
		level             int
		promoted, members []int
	}{
		{[]int{0, 0, 0, 0}, []int{30, 32, 35, 31}, 0, nil, []int{0, 1, 2, 3}},
		{[]int{0, 0, 0, 0}, nil, 0, nil, []int{0, 1, 2, 3}},
		{[]int{0, 0, 0, 0}, []int{0, 32, 35, 31}, 0, nil, []int{0, 1, 2, 3}},
		{[]int{0, 0, 0}, []int{600, 32, 35}, 0, nil, nil},
		{[]int{0, 0, 0, 0}, []int{600, 32, 35, 31}, 0, []int{0}, nil},
		{[]int{0, 0, 0, 0}, []int{98, 32, 35, 31}, 0, nil, []int{0, 1, 2, 3}},
		{[]int{0, 0, 0, 0, 0}, []int{600, 32, 35, 31, 30}, 0, []int{0}, []int{1, 2, 3, 4}},
		{[]int{0, 0, 0, 0}, []int{200, 100, 20, 20}, 0, []int{0, 1}, nil},
		{[]int{2, 1, 1, 1, 1, 0}, []int{600, 600, 30, 30, 30, 30}, 1, []int{1}, nil},
		{[]int{2, 1, 1, 1, 0, 0, 0, 0}, []int{600, 100, 100, 100, 9, 9, 9, 9}, 0, nil, []int{4, 5, 6, 7}},
	}
	for _, c := range cases {
		p := ShardPointer{Digests: slices.Repeat([]string{dg}, len(c.levels)), Levels: c.levels, Sizes: c.sizes}
		level, promoted, members := p.dueMerge()
		if level != c.level || !slices.Equal(promoted, c.promoted) || !slices.Equal(members, c.members) {
			t.Errorf("levels %v sizes %v: level %d, promoted %v, merged %v; want %d, %v, %v",
				c.levels, c.sizes, level, promoted, members, c.level, c.promoted, c.members)
		}
	}
}

// TestWritePromoteAndMergeInOnePass: a 256-page batch, then rounds of two
// 8-page tasks each. The second such round leaves five level-0 runs on a
// shard the tasks all reach, so its one compaction both moves the batch's
// run up and merges the other four behind it: the chain reads [batch,
// merged], both at level 1. After every round the answers equal
// internal/oracle's.
func TestWritePromoteAndMergeInOnePass(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	fe := NewFrontend(c, c.Peers[2])
	orc := oracle.New(cfg.RankWeight)
	pages := corpusBatches(cfg.Seed, 1, 256+4*8)[0]
	check := func(round int) {
		t.Helper()
		for _, at := range []int{0, 255, len(pages) - 1} {
			words := strings.Fields(pages[at].Text)
			q := words[0] + " " + words[1]
			resp, err := fe.Search(q, 10)
			if err != nil {
				t.Fatalf("round %d query %q: %v", round, q, err)
			}
			root, err := oracle.Flat(q, query.KindAnd)
			if err != nil {
				t.Fatal(err)
			}
			if diff := oracleDiff(resp, orc.Search(root, c.QB.PageRanks(), 0, 10)); diff != "" {
				t.Fatalf("round %d query %q: %s", round, q, diff)
			}
		}
	}
	if rr, err := c.IndexBatch(owner, pages[:256]); err != nil || len(rr.Errors) > 0 {
		t.Fatalf("batch: err=%v round errors=%v", err, rr.Errors)
	}
	for _, p := range pages[:256] {
		orc.Publish(p.URL, p.Text)
	}
	check(0)
	batch := c.written[0].Digests[0]
	for round, at := 1, 256; round <= 2; round, at = round+1, at+16 {
		for _, task := range [][]BatchPage{pages[at : at+8], pages[at+8 : at+16]} {
			if _, err := c.PublishBatch(owner, c.Peers[0], task); err != nil {
				t.Fatal(err)
			}
			for _, p := range task {
				orc.Publish(p.URL, p.Text)
			}
		}
		c.Seal()
		if rr := c.ProcessRoundReceipt(); len(rr.Errors) > 0 || rr.SegmentWrites != 2 {
			t.Fatalf("round %d: %d segment writes, round errors=%v", round, rr.SegmentWrites, rr.Errors)
		}
		check(round)
	}
	both := 0
	for _, ptr := range c.written {
		if len(ptr.Digests) == 2 && ptr.Digests[0] == batch && slices.Equal(ptr.Levels, []int{1, 1}) {
			both++
		}
	}
	t.Logf("%d of %d shards promoted and merged in one pass", both, cfg.NumShards)
	if both == 0 {
		t.Fatal("no shard promoted and merged in one pass; the splice was not exercised")
	}
}

// TestWriteCompactionReadsPastForgedRun: a pass decodes a run it has
// already decoded only once, but every compactor still fetches the run
// itself and checks its digest, and a copy that fails the check is a miss
// at its holder. Three 8-page batches leave three level-0 runs on every
// shard; a fourth round publishes two one-term pages as two tasks with
// different writers, so exactly two shards — low, then high — reach four
// runs and merge. Every node holding the first run, the high shard's
// writer among them, is handed forged (but decodable) bytes under its
// key; the low shard's writer alone keeps the genuine ones. The high
// shard's read goes past the forged copies to the genuine one, so both
// shards compact, from the genuine run. Without that genuine copy no copy
// anywhere passes: both merges fail hash verification, which is their
// error (stage "compact"), and both appends still land.
func TestWriteCompactionReadsPastForgedRun(t *testing.T) {
	cfg := DefaultConfig()

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

	round := func(genuineOnLowWriter bool) (*Cluster, RoundReceipt) {
		// A page's task name seeds its quorum draw, so which bee writes it
		// follows from its URL: boot the three batches afresh and try the
		// next URL for the high page until the two writers differ.
		var c *Cluster
		var lowWriter, highWriter *WorkerBee
		for attempt := 1; lowWriter == nil || lowWriter == highWriter; attempt++ {
			if attempt > 16 {
				t.Fatalf("setup: no URL in %d gave the two pages distinct writers", attempt-1)
			}
			c = NewCluster(cfg)
			owner := c.NewAccount("writer", 1<<40)
			c.Seal()
			for round, pages := range corpusBatches(cfg.Seed, 3, 8) {
				if rr, err := c.IndexBatch(owner, pages); err != nil || len(rr.Errors) > 0 || rr.PointerWrites != cfg.NumShards {
					t.Fatalf("round %d: err=%v errors=%v, %d pointer writes", round, err, rr.Errors, rr.PointerWrites)
				}
			}
			urls := []string{"dweb://forged/0", fmt.Sprintf("dweb://forged/%d", attempt)}
			for i, w := range words {
				if _, err := c.PublishBatch(owner, c.Peers[0], []BatchPage{{URL: urls[i], Text: w + " " + w}}); err != nil {
					t.Fatal(err)
				}
			}
			c.Seal()
			// Every assignee is honest and wins, so a task's designated writer
			// is its first assignee in address order.
			writerOf := make(map[string]*WorkerBee) // page URL → its task's writer
			for _, b := range c.Bees {
				for _, task := range c.QB.OpenTasksFor(b.Account.Address()) {
					assignees := append([]chain.Address(nil), task.Assignees...)
					sort.Slice(assignees, func(i, j int) bool { return assignees[i].String() < assignees[j].String() })
					for _, bee := range c.Bees {
						if bee.Account.Address() == assignees[0] {
							writerOf[task.Pages[0].URL] = bee
						}
					}
				}
			}
			lowWriter, highWriter = writerOf[urls[0]], writerOf[urls[1]]
			if lowWriter == nil || highWriter == nil {
				t.Fatalf("setup: no writer for the two pages, got %v and %v", lowWriter, highWriter)
			}
		}

		before, _, err := readShardPointer(c.Peers[2].DHT(), high)
		if err != nil || len(before.Digests) != 3 {
			t.Fatalf("high shard before the round: %+v err=%v", before, err)
		}
		run := before.Digests[0]
		key := dht.KeyOfString(index.SegmentKey(run))
		genuine, _, err := c.Peers[2].DHT().GetImmutableCtx(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		forged := index.NewBuilder(1)
		forged.Add(index.DocIDOf("dweb://forged/spam"), "forged run")
		for _, d := range dhtNodes(c) {
			if _, held := d.Local(key); held || d == highWriter.Peer.DHT() {
				d.StoreLocal(key, forged.Build().Encode(), 0)
			}
		}
		if genuineOnLowWriter {
			lowWriter.Peer.DHT().StoreLocal(key, genuine, 0)
		}
		return c, c.ProcessRoundReceipt()
	}

	c, rr := round(true)
	if len(rr.Errors) != 0 || rr.Compactions != 2 || rr.PointerWrites != 2 {
		t.Fatalf("genuine copy on the low shard's writer: errors %v, %d compactions, %d pointer writes; want both merges and both appends", rr.Errors, rr.Compactions, rr.PointerWrites)
	}
	spam := index.DocIDOf("dweb://forged/spam")
	for _, shard := range []int{low, high} {
		ptr, _, err := readShardPointer(c.Peers[2].DHT(), shard)
		if err != nil || !reflect.DeepEqual(ptr.Levels, []int{1}) {
			t.Fatalf("shard %d after the round: levels %v err=%v, want [1]", shard, ptr.Levels, err)
		}
		seg, _, err := readSegmentCtx(context.Background(), c.Peers[2].DHT(), ptr.Digests[0])
		if err != nil || seg.Covers(spam) {
			t.Fatalf("shard %d's merged run: err=%v; it must not cover the forged document", shard, err)
		}
	}

	c, rr = round(false)
	if len(rr.Errors) != 2 || rr.Compactions != 0 || rr.PointerWrites != 2 {
		t.Fatalf("no genuine copy: errors %v, %d compactions, %d pointer writes; want two failed merges and both appends", rr.Errors, rr.Compactions, rr.PointerWrites)
	}
	for _, e := range rr.Errors {
		if e.Stage != "compact" || !strings.Contains(e.Err.Error(), "hash verification") {
			t.Fatalf("round errors = %v, want hash-verification failures at stage compact", rr.Errors)
		}
	}
	for _, shard := range []int{low, high} {
		ptr, _, err := readShardPointer(c.Peers[2].DHT(), shard)
		if err != nil || !reflect.DeepEqual(ptr.Levels, []int{0, 0, 0, 0}) {
			t.Fatalf("shard %d after the round: levels %v err=%v, want [0 0 0 0]", shard, ptr.Levels, err)
		}
	}
}

// TestWriteCompactionMispredicted: a compaction takes a prepared merge
// only for the bucket the pointer it reads holds. Seven 16-page rounds
// leave every shard's chain at one tier-1 run and three level-0 runs.
// The pointer one shard held after the third round — three level-0 runs,
// merged away since — is then hand-stored on every node under a newer
// sequence, so the eighth round's read of that shard disagrees with what
// its writer last wrote: by the end of that round's commit wave the
// merge prepared for that shard is of the written chain's bucket, not
// the read one's. The shard must still compact, inline: its merged run
// is the restricted merge of the runs the read pointer names plus the
// round's segment. Every other shard compacts too.
func TestWriteCompactionMispredicted(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	const shard = 5
	batches := corpusBatches(cfg.Seed, 8, 16)
	var older ShardPointer
	for round, pages := range batches[:7] {
		if rr, err := c.IndexBatch(owner, pages); err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
		if round == 2 {
			var err error
			if older, _, err = readShardPointer(c.Peers[2].DHT(), shard); err != nil || !reflect.DeepEqual(older.Levels, []int{0, 0, 0}) {
				t.Fatalf("shard %d after round %d: %+v err=%v", shard, round, older, err)
			}
		}
	}
	written, _, err := readShardPointer(c.Peers[2].DHT(), shard)
	if err != nil || !reflect.DeepEqual(written.Levels, []int{1, 0, 0, 0}) || !reflect.DeepEqual(c.written[shard], written) {
		t.Fatalf("shard %d before the round: %+v err=%v, last written %+v", shard, written, err, c.written[shard])
	}
	stale := older
	stale.Version = written.Version + 1
	for _, n := range dhtNodes(c) {
		n.StoreLocal(pointerKey(shard), encodeJSON(stale), stale.Version)
	}

	if _, err := c.PublishBatch(owner, c.Peers[0], batches[7]); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	var taskID string
	for _, b := range c.Bees {
		for _, task := range c.QB.OpenTasksFor(b.Account.Address()) {
			taskID = task.ID
		}
	}
	var rr RoundReceipt
	builds := newBuildSet()
	c.commitWave(&rr, builds)
	predicted := append(slices.Clone(written.Digests[1:]), soleIndexBuild(t, builds).digest)
	if c.runs.prepared[preparedKey{bucketKey(predicted), shard}] == nil {
		t.Fatalf("no merge was prepared for shard %d's written chain before the pass", shard)
	}
	settleRound(c, &rr)
	if len(rr.Errors) > 0 || rr.Compactions != cfg.NumShards {
		t.Fatalf("%d compactions, errors %v; want every shard's", rr.Compactions, rr.Errors)
	}
	task, ok := c.QB.TaskInfo(taskID)
	if !ok || task.WinningDigest != predicted[len(predicted)-1] {
		t.Fatalf("task %q: winning segment %q, want the build's", taskID, task.WinningDigest)
	}

	after, _, err := readShardPointer(c.Peers[2].DHT(), shard)
	if err != nil || !reflect.DeepEqual(after.Levels, []int{1}) {
		t.Fatalf("shard %d after the round: %+v err=%v, want one tier-1 run", shard, after, err)
	}
	var runs []*index.Segment
	for _, dg := range append(slices.Clone(older.Digests), task.WinningDigest) {
		val, _, err := fetchSegmentCtx(context.Background(), c.Peers[2].DHT(), dg)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := index.DecodeSegment(val)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, seg)
	}
	want := index.MergeShards(runs, cfg.NumShards, []int{shard})[0].Encode()
	got, _, err := fetchSegmentCtx(context.Background(), c.Peers[2].DHT(), after.Digests[0])
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("shard %d's merged run (%d bytes, err=%v) is not the merge of the runs its read pointer named (%d bytes)", shard, len(got), err, len(want))
	}
}

// pinnedOutvoted is what TestWritePredictionOutvoted's run produced
// before any merge started from the round's builds: a digest of every
// round's receipt, and clusterDigest. Re-recorded when shard pointers
// began to carry each run's size.
var pinnedOutvoted = struct{ receipts, digest string }{
	receipts: "5c98183b905cd00c1f472a5eda85a3b16c588c4712d63a3bd24103d001b5f87d",
	digest:   "52acb0855ebe836d6e95679eb14428a12e3d5d4b730f1428416ba498f04869a5",
}

// TestWritePredictionOutvoted: the merges prepared at the end of a
// round's commit wave are predicted from the honest builds (landings), so
// a colluding majority that wins the vote makes the prediction wrong. Six
// 16-page rounds fill level 0 on all eight shards by the fourth, whose
// task three of the four bees collude on. Before that round's pass all
// eight shards hold a merge of the honest bucket; the colluders' segment
// lands on four shards, whose pass-start prepare replaces those merges
// with fresh ones of the bucket the pass writes, and the other four merge
// one round later, as predicted. So the outvoted round's compactions take
// no merge prepared before its pass, the next round's take one each, and
// at GOMAXPROCS 1, 2 and 8 the receipts and every node's state equal the
// recording.
func TestWritePredictionOutvoted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		cfg := DefaultConfig()
		c := NewCluster(cfg)
		owner := c.NewAccount("writer", 1<<40)
		c.Seal()
		h := sha256.New()
		for round, pages := range corpusBatches(cfg.Seed, 6, 16) {
			outvoted := round == 3
			for _, b := range c.Bees[:3] {
				b.Colluding = outvoted
			}
			var honest *built
			var before map[preparedKey]*fanout.Job[map[int]mergedRun]
			var written []ShardPointer
			rr := indexRound(t, c, owner, pages, func(builds *buildSet) *WorkerBee {
				honest, before, written = soleIndexBuild(t, builds), maps.Clone(c.runs.prepared), slices.Clone(c.written)
				return nil
			}, func(int, *RoundReceipt) {})
			if len(rr.Errors) > 0 {
				t.Fatalf("GOMAXPROCS=%d round %d: round errors=%v", procs, round, rr.Errors)
			}
			fmt.Fprintf(h, "%+v\n", rr)
			if want := dueKeys(written, appendsOf(honest)); !maps.Equal(keysOf(before), want) || outvoted && len(want) != cfg.NumShards {
				t.Fatalf("GOMAXPROCS=%d round %d: %d merges prepared before the pass, want the %d of the honest buckets", procs, round, len(before), len(want))
			}
			wantCompactions := 0
			if round == 3 || round == 4 {
				wantCompactions = 4
			}
			wantTaken := wantCompactions
			if outvoted {
				wantTaken = 0
			}
			if taken := takenFrom(c, before); rr.Compactions != wantCompactions || taken != wantTaken {
				t.Fatalf("GOMAXPROCS=%d round %d: %d compactions, %d merges prepared before the pass taken (want %d) of %d",
					procs, round, rr.Compactions, taken, wantTaken, len(before))
			}
			if want := dueKeys(c.written, nil); !maps.Equal(keysOf(c.runs.prepared), want) {
				t.Fatalf("GOMAXPROCS=%d round %d: %d merges prepared after the pass, want %d", procs, round, len(c.runs.prepared), len(want))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pinnedOutvoted.receipts {
			t.Errorf("GOMAXPROCS=%d: receipts digest %s, recorded %s", procs, got, pinnedOutvoted.receipts)
		}
		if got := clusterDigest(c); got != pinnedOutvoted.digest {
			t.Errorf("GOMAXPROCS=%d: cluster digest %s, recorded %s", procs, got, pinnedOutvoted.digest)
		}
	}
}

// TestWritePrepareRule: one rule decides every merge. After each of the
// round engine's prepares a test can see — the commit wave's, with the
// round's build as the first pass's appends, and each pass's last, with
// none — the prepared merges are exactly the due merges of the written
// pointers plus those appends, so no merge a pass took outlives it. Nine
// 16-page rounds run at GOMAXPROCS 1, 2 and 8, among them an outvoted
// round and a round whose task one assignee never reveals, which the
// next round's janitor pass finalizes; both that pass and the first pass
// before it compact. Every run a written pointer names stays open, so a
// pass's own prepare covers every merge it makes due; and every
// compaction of a first pass the builds predicted takes a merge prepared
// before the pass.
func TestWritePrepareRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const outvotedRound, silentRound = 3, 6
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		cfg := DefaultConfig()
		c := NewCluster(cfg)
		owner := c.NewAccount("writer", 1<<40)
		c.Seal()
		predicted, janitor := 0, 0 // compactions of predicted first passes, of janitor passes
		for round, pages := range corpusBatches(cfg.Seed, 9, 16) {
			for _, b := range c.Bees[:3] {
				b.Colluding = round == outvotedRound
			}
			var before map[preparedKey]*fanout.Job[map[int]mergedRun]
			compacted := 0 // by the passes before
			rr := indexRound(t, c, owner, pages, func(builds *buildSet) *WorkerBee {
				if want := dueKeys(c.written, appendsOf(soleIndexBuild(t, builds))); !maps.Equal(keysOf(c.runs.prepared), want) {
					t.Fatalf("GOMAXPROCS=%d round %d: %d merges prepared after the commit wave, want %d", procs, round, len(c.runs.prepared), len(want))
				}
				before = maps.Clone(c.runs.prepared)
				if round == silentRound {
					return assigneeOf(t, c)
				}
				return nil
			}, func(pass int, r *RoundReceipt) {
				if want := dueKeys(c.written, nil); !maps.Equal(keysOf(c.runs.prepared), want) {
					t.Fatalf("GOMAXPROCS=%d round %d pass %d: %d merges prepared after the pass, want %d", procs, round, pass, len(c.runs.prepared), len(want))
				}
				for s, ptr := range c.written {
					for _, dg := range ptr.Digests {
						if c.runs.open[dg] == nil {
							t.Fatalf("GOMAXPROCS=%d round %d pass %d: shard %d's written run %.8s is not open", procs, round, pass, s, dg)
						}
					}
				}
				n := r.Compactions - compacted
				compacted = r.Compactions
				switch taken := takenFrom(c, before); {
				case pass == 1:
					janitor += n
				case round == outvotedRound:
				case taken != n:
					t.Fatalf("GOMAXPROCS=%d round %d: %d compactions, %d of them took a merge prepared before the pass", procs, round, n, taken)
				default:
					predicted += n
				}
				before = maps.Clone(c.runs.prepared)
			})
			if len(rr.Errors) > 0 {
				t.Fatalf("GOMAXPROCS=%d round %d: round errors=%v", procs, round, rr.Errors)
			}
		}
		if predicted == 0 || janitor == 0 {
			t.Fatalf("GOMAXPROCS=%d: %d compactions in predicted first passes, %d in janitor passes; want both", procs, predicted, janitor)
		}
	}
}

// indexRound is IndexBatch, publishing on a random peer, driven step by
// step for a cluster that runs no maintenance. atCommit sees the cluster
// once the commit wave has returned, with the round's builds, and names a
// bee that reveals nothing this round, if any; atPass sees it once each
// materialize pass has returned, with the receipt so far.
func indexRound(t *testing.T, c *Cluster, owner *chain.Account, pages []BatchPage, atCommit func(*buildSet) *WorkerBee, atPass func(pass int, r *RoundReceipt)) RoundReceipt {
	t.Helper()
	if c.cfg.Maintenance {
		t.Fatal("indexRound runs no maintenance pass")
	}
	br, err := c.PublishBatch(owner, c.RandomPeer(), pages)
	if err != nil {
		t.Fatal(err)
	}
	c.Seal()
	var r RoundReceipt
	builds := newBuildSet()
	c.commitWave(&r, builds)
	silent := atCommit(builds)
	c.Seal()
	for _, b := range c.Bees {
		if b != silent {
			b.RevealPhase()
		}
	}
	c.Seal()
	c.materializePass(&r)
	atPass(0, &r)
	if stuck := c.QB.OpenTasksPastDeadline(c.Chain.Height()); len(stuck) > 0 {
		for _, id := range stuck {
			c.SubmitCall(c.treasury, contracts.MethodFinalize, contracts.FinalizeParams{TaskID: id}, 0)
		}
		c.Seal()
		c.materializePass(&r)
		atPass(1, &r)
	}
	c.noteRoundReceipt(r)
	r.StoreCost = br.StoreCost
	return r
}

// soleIndexBuild is the round's one index build.
func soleIndexBuild(t *testing.T, builds *buildSet) *built {
	t.Helper()
	var out *built
	for _, p := range builds.byKey {
		if b := p.Wait(); b.seg != nil {
			if out != nil {
				t.Fatal("the round ran more than one index build")
			}
			out = b
		}
	}
	if out == nil {
		t.Fatal("the round ran no index build")
	}
	return out
}

// assigneeOf is a bee assigned to the one task open on chain.
func assigneeOf(t *testing.T, c *Cluster) *WorkerBee {
	t.Helper()
	for _, b := range c.Bees {
		if len(c.QB.OpenTasksFor(b.Account.Address())) > 0 {
			return b
		}
	}
	t.Fatal("no bee holds an open task")
	return nil
}

// appendsOf is b's segment appended to every shard it lands on.
func appendsOf(b *built) map[int][]landedRun {
	out := make(map[int][]landedRun)
	for _, s := range b.shards {
		out[s] = []landedRun{{b.digest, len(b.result)}}
	}
	return out
}

// dueKeys is what runTable.prepare keeps when every run is open: each
// shard's due merge of its written pointer with appended added.
func dueKeys(written []ShardPointer, appended map[int][]landedRun) map[preparedKey]bool {
	out := make(map[preparedKey]bool)
	for s, ptr := range written {
		ptr = ptr.withAppended(appended[s])
		_, _, members := ptr.dueMerge()
		if members == nil {
			continue
		}
		bucket := make([]string, len(members))
		for i, at := range members {
			bucket[i] = ptr.Digests[at]
		}
		out[preparedKey{bucketKey(bucket), s}] = true
	}
	return out
}

// keysOf is the set of merges prepared.
func keysOf(prepared map[preparedKey]*fanout.Job[map[int]mergedRun]) map[preparedKey]bool {
	out := make(map[preparedKey]bool, len(prepared))
	for k := range prepared {
		out[k] = true
	}
	return out
}

// takenFrom counts the merges in prepared a compaction took: those whose
// view for their shard is the one the table holds open.
func takenFrom(c *Cluster, prepared map[preparedKey]*fanout.Job[map[int]mergedRun]) int {
	taken := 0
	for k, p := range prepared {
		if run := (*p.Wait())[k.shard]; c.runs.open[run.digest] == run.seg {
			taken++
		}
	}
	return taken
}
