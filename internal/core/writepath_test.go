package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/netsim"
)

// TestWriteTieredMatchesMonolithic is the tiered-compaction safety
// property: across seeds and round counts, a cluster on the tiered
// write path answers every query — results, scores, rank blend — and
// finalizes every rank vector byte-identically to one on the
// monolithic policy. The two policies produce different segment chains
// (that is the point), but index.Merge over either chain must yield
// the same logical index. Runs under CI's -count=2 re-run pattern, so
// it also guards against residual global state.
func TestWriteTieredMatchesMonolithic(t *testing.T) {
	queries := []string{"workload", "payload body", "document"}
	for _, seed := range []uint64{1, 7} {
		for _, rounds := range []int{2, 5} {
			t.Run(fmt.Sprintf("seed=%d,rounds=%d", seed, rounds), func(t *testing.T) {
				tiered := driveWritePath(t, seed, rounds, false, queries)
				mono := driveWritePath(t, seed, rounds, true, queries)
				for i, q := range queries {
					if !reflect.DeepEqual(tiered.responses[i], mono.responses[i]) {
						t.Fatalf("query %q diverged:\ntiered: %+v\nmonolithic: %+v",
							q, tiered.responses[i], mono.responses[i])
					}
				}
				if !reflect.DeepEqual(tiered.ranks, mono.ranks) {
					t.Fatalf("rank vectors diverged:\ntiered: %v\nmonolithic: %v",
						tiered.ranks, mono.ranks)
				}
				if tiered.stats != mono.stats {
					t.Fatalf("index stats diverged: tiered %+v vs monolithic %+v",
						tiered.stats, mono.stats)
				}
				// At five rounds the workload overflows level-0 buckets, so
				// the equivalence must have been exercised across real merges.
				if rounds >= 5 && tiered.write.Compactions == 0 {
					t.Fatalf("tiered run never compacted; property not exercised: %+v", tiered.write)
				}
				if tiered.write.IngestedBytes != mono.write.IngestedBytes {
					t.Fatalf("ingested bytes diverged: tiered %d vs monolithic %d",
						tiered.write.IngestedBytes, mono.write.IngestedBytes)
				}
			})
		}
	}
}

// writePathRun is one policy's observable outcome for the property test.
type writePathRun struct {
	responses [][]Result
	ranks     map[string]float64
	stats     IndexStats
	write     WriteStats
}

// driveWritePath boots a cluster under one compaction policy, ingests
// a linked corpus over the given number of publish rounds, finalizes a
// full rank epoch, and snapshots everything a reader can observe.
func driveWritePath(t *testing.T, seed uint64, rounds int, monolithic bool, queries []string) writePathRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = 10
	cfg.NumBees = 3
	cfg.NumShards = 2 // concentrate chains so merges actually fire
	cfg.MonolithicCompaction = monolithic
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 1_000_000)
	c.Seal()

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
			doc++
		}
		c.Seal()
		c.RunUntilIdle(6)
	}
	c.StartRankEpoch(2)
	c.RunUntilIdle(10)

	run := writePathRun{ranks: c.QB.PageRanks(), write: c.WriteStats()}
	run.stats, _, _ = readStats(c.Peers[1].DHT())
	fe := NewFrontend(c, c.Peers[2])
	for _, q := range queries {
		resp, err := fe.Search(q, doc)
		if err != nil {
			t.Fatalf("query %q under monolithic=%v: %v", q, monolithic, err)
		}
		run.responses = append(run.responses, resp.Results)
	}
	return run
}

// parentMaterialize is the materialize phase of each of the twelve
// rounds TestWriteOneWalkPerRMW drives — MaterializeSerial.Msgs and
// MaterializeWave.Latency in ms — recorded at the commit before
// read-modify-writes reused their read's walk: every pointer RMW and
// the stats bump walked twice (Get, then Put), and the bump followed the
// shard wave on the critical path. Rounds 3, 7 and 11 compact every
// shard.
var parentMaterialize = [12]struct{ msgs, waveMs int }{
	{253, 1772}, {253, 1756}, {242, 1663}, {411, 2561}, {243, 1812}, {243, 1852},
	{243, 1772}, {408, 2376}, {243, 1765}, {243, 1928}, {243, 1799}, {409, 2751},
}

// TestWriteOneWalkPerRMW is the one-walk-per-write claim, measured where
// it is paid: over twelve 8-page batch rounds on the default cluster
// (three level-0 merges per shard) every round rewrites all 8 pointers
// and bumps the stats once, and the materialize traffic per mutable
// write sits at least 30 % below the parent's on every plain round. A
// compacting round adds the merge's own segment reads and one segment
// put per shard — immutable-record traffic this change does not touch —
// so there the bar is the same absolute saving, not the same ratio. The
// phase's makespan falls by at least 55 % on every plain round: shorter
// legs, the stats bump beside them instead of after them, and every
// leg's quorum read overlapping the segment puts (the walks and the
// stats fold alone stop at 47–52 %). A compacting round has a bar of its
// own, 50 %: its legs carry a merge, whose input runs are fetched as one
// wave (fetched one after the other the three rounds save 45–48 %).
// Each pointer ends at Version = rounds on every one of the K closest
// replicas (one accepted write per round, none lost to a stale walk), and the wave
// reading of every round stays within the serial one with the stats
// bump folded beside the shard legs.
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
		if rr.PointerWrites != cfg.NumShards || rr.StatsWrites != 1 {
			t.Fatalf("round %d: %d pointer writes, %d stats writes; the corpus batch must touch every shard",
				round, rr.PointerWrites, rr.StatsWrites)
		}
		writes := rr.PointerWrites + rr.StatsWrites
		got, parent := rr.MaterializeSerial.Msgs, parentMaterialize[round].msgs
		switch rr.Compactions {
		case 0:
			if float64(got) > 0.70*float64(parent) {
				t.Errorf("round %d: %.2f msgs per mutable write, parent %.2f — less than 30 %% saved",
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
		bar := 0.45
		if rr.Compactions > 0 {
			bar = 0.50
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

// TestWriteRefusedStoreSurfaces: a STORE every replica refuses — each
// holds a newer sequence than the writer computed — is not a write. The
// read-modify-write reports it, and a round whose stats bump was refused
// says so (stage "stats") instead of counting a write nobody kept.
func TestWriteRefusedStoreSurfaces(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 100_000)
	c.Seal()
	publish := func(i int) RoundReceipt {
		t.Helper()
		if _, err := c.Publish(alice, c.Peers[i], fmt.Sprintf("dweb://refused/%d", i),
			fmt.Sprintf("refused store document %d", i), nil); err != nil {
			t.Fatal(err)
		}
		c.Seal()
		return c.ProcessRoundReceipt()
	}
	if rr := publish(0); rr.StatsWrites != 1 || len(rr.Errors) > 0 {
		t.Fatalf("healthy round: %d stats writes, errors %v", rr.StatsWrites, rr.Errors)
	}

	statsKey := dht.KeyOfString(StatsKey)
	// The round: every replica's stats record turns undecodable at a high
	// sequence, so the bump restarts from zero at Version 1 and is refused.
	c.forEachNode(func(n *dht.Node) { n.StoreLocal(statsKey, []byte("not json"), 50) })
	rr := publish(1)
	if rr.StatsWrites != 0 {
		t.Fatalf("refused bump counted as %d stats writes", rr.StatsWrites)
	}
	var stages []string
	for _, re := range rr.Errors {
		stages = append(stages, re.Stage)
		if re.Stage == "stats" && re.Shard != -1 {
			t.Fatalf("stats error scoped to shard %d", re.Shard)
		}
	}
	if fmt.Sprint(stages) != "[stats]" {
		t.Fatalf("round errors = %v, want exactly one at stage stats", rr.Errors)
	}
	if rr.PointerWrites == 0 {
		t.Fatal("the shard legs must be untouched by the stats failure")
	}

	// The helper itself: a mutation that comes back with an old sequence.
	_, cost, wrote, err := rmw(c.Bees[0].Peer.DHT(), statsKey, func(cur []byte) ([]byte, uint64, netsim.Cost, error) {
		if string(cur) != "not json" {
			t.Fatalf("rmw read %q", cur)
		}
		return []byte(`{"Docs":999}`), 49, netsim.Cost{}, nil
	})
	if err == nil || wrote || cost.Read.Msgs == 0 || cost.Write.Msgs == 0 {
		t.Fatalf("stale rmw: wrote=%v err=%v after %d msgs read, %d written", wrote, err, cost.Read.Msgs, cost.Write.Msgs)
	}
}
