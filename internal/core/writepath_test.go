package core

import (
	"fmt"
	"reflect"
	"testing"
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
