package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/index"
)

// TestFetchSegmentSingleflight pins the dedup contract: a request for a
// digest with a fetch already in flight blocks until the leader finishes
// and shares its result instead of issuing a second DHT read.
func TestFetchSegmentSingleflight(t *testing.T) {
	c := smallCluster(t)
	fe := NewFrontend(c, c.Peers[1])

	fl := &segFetch{done: make(chan struct{})}
	fe.mu.Lock()
	fe.segFlight["deadbeef"] = fl
	fe.mu.Unlock()

	got := make(chan *index.Segment, 1)
	go func() {
		seg, _, err := fe.fetchSegmentCtx(context.Background(), "deadbeef")
		if err != nil {
			t.Error(err)
		}
		got <- seg
	}()

	select {
	case <-got:
		t.Fatal("fetchSegment returned before the in-flight fetch completed")
	case <-time.After(20 * time.Millisecond):
	}

	want := index.NewSegment(7)
	fl.seg = want
	fe.mu.Lock()
	delete(fe.segFlight, "deadbeef")
	fe.mu.Unlock()
	close(fl.done)

	select {
	case seg := <-got:
		if seg != want {
			t.Fatalf("waiter got %p, want the leader's segment %p", seg, want)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter did not wake after the flight completed")
	}
}

// TestFrontendCachesStayWithinBudget drives publish churn — every wave
// retires shard chains and mints new segment digests — against a
// frontend with deliberately tiny cache budgets, asserting the LRUs
// never exceed them while still serving hits.
func TestFrontendCachesStayWithinBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 10
	cfg.NumBees = 3
	// The segment budget is tiny to force digest eviction under churn;
	// the chain budget fits a handful of merged shards so warm queries
	// still hit.
	cfg.SegCacheBytes = 4 << 10
	cfg.ChainCacheBytes = 64 << 10
	c := NewCluster(cfg)
	fe := NewFrontend(c, c.Peers[1])

	alice := c.NewAccount("alice", 100_000)
	c.Seal()

	for wave := 0; wave < 6; wave++ {
		for d := 0; d < 4; d++ {
			url := fmt.Sprintf("dweb://churn-%d-%d", wave, d)
			text := fmt.Sprintf("churn document wave %d copy %d with shared apples and unique w%dd%d", wave, d, wave, d)
			if _, err := c.Publish(alice, c.Peers[0], url, text, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Seal()
		c.RunUntilIdle(6)
		if _, err := fe.ExecuteCtx(context.Background(), Query{Raw: "apples churn"}); err != nil {
			t.Fatal(err)
		}
		st := fe.CacheStatsSnapshot()
		if st.SegBytes > st.SegBudget {
			t.Fatalf("wave %d: segment cache %dB over its %dB budget", wave, st.SegBytes, st.SegBudget)
		}
		if st.ChainBytes > st.ChainBudget {
			t.Fatalf("wave %d: chain cache %dB over its %dB budget", wave, st.ChainBytes, st.ChainBudget)
		}
	}

	st := fe.CacheStatsSnapshot()
	if st.SegEntries == 0 && st.ChainEntries == 0 {
		t.Fatal("caches admitted nothing — budgets too small to be a meaningful test")
	}
	if st.SegMisses == 0 {
		t.Fatal("churn never missed the segment cache — eviction untested")
	}
	// Re-running the same query against the unchanged index is served
	// from the chain cache.
	warmBefore := fe.CacheStatsSnapshot().ChainHits
	if _, err := fe.ExecuteCtx(context.Background(), Query{Raw: "apples churn"}); err != nil {
		t.Fatal(err)
	}
	if fe.CacheStatsSnapshot().ChainHits <= warmBefore {
		t.Fatal("warm repeat query did not hit the chain cache")
	}
}

// TestLoadShardsParallelMatchesSequential: the goroutine fan-out must
// return exactly the segments the sequential path returns for the same
// seed — the concurrency-determinism contract at the shard-wave level.
func TestLoadShardsParallelMatchesSequential(t *testing.T) {
	c, fe := queryCluster(t)
	shards := make([]int, 0, c.Config().NumShards)
	for s := 0; s < c.Config().NumShards; s++ {
		shards = append(shards, s)
	}

	// Cold parallel wave.
	got, _, err := fe.loadShardsCtx(reqBudget{}, 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh frontend, sequential loads.
	fe2 := NewFrontend(c, c.Peers[2])
	want := make(map[int]*index.Segment, len(shards))
	for _, s := range shards {
		seg, _, err := fe2.loadShardCtx(reqBudget{}, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = seg
	}
	if len(got) != len(want) {
		t.Fatalf("parallel loaded %d shards, sequential %d", len(got), len(want))
	}
	for s := range want {
		g, w := got[s].TermsSorted(), want[s].TermsSorted()
		if len(g) != len(w) {
			t.Fatalf("shard %d: %d terms parallel vs %d sequential", s, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("shard %d term %d: %q vs %q", s, i, g[i], w[i])
			}
		}
	}
}
