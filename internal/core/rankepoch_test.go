package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rank"
)

// TestRankEpochDeltaScheduleAndStaleness drives the incremental rank
// schedule end to end: the first epoch is forced full, later epochs run
// delta off the on-chain dirty snapshot, the every-4th-epoch cadence
// forces periodic exactness, and the staleness accessor tracks all of
// it. Every epoch finalizing at quorum 3 is itself a determinism check:
// three bees independently computed byte-identical delta results from
// the chain's snapshot.
func TestRankEpochDeltaScheduleAndStaleness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 10
	cfg.NumBees = 3
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 1_000_000)
	c.Seal()

	publish := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			var links []string
			if i > 0 {
				links = []string{fmt.Sprintf("dweb://re/%02d", (i-1)%lo1(lo))}
			}
			if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://re/%02d", i),
				fmt.Sprintf("rank epoch corpus document %02d", i), links); err != nil {
				t.Fatal(err)
			}
		}
		c.Seal()
		c.RunUntilIdle(6)
	}
	publish(0, 8)

	// Epoch 1: nothing finalized yet, so the scheduler must go full.
	if e := c.StartRankEpochDelta(2); e != 1 {
		t.Fatalf("first epoch = %d", e)
	}
	c.RunUntilIdle(10)
	re, ok := c.QB.RankEpochInfo(1)
	if !ok || !re.Done || re.Delta {
		t.Fatalf("epoch 1 = %+v, want finalized full", re)
	}
	st := c.QB.RankStaleness()
	if st.Epoch != 1 || st.LastFull != 1 || st.DeltasSinceFull != 0 || st.DirtyPages != 0 {
		t.Fatalf("staleness after full epoch = %+v", st)
	}

	// Two new pages dirty the graph; epoch 2 must run delta with exactly
	// those URLs (sorted) in its on-chain snapshot.
	publish(8, 10)
	if st := c.QB.RankStaleness(); st.DirtyPages != 2 {
		t.Fatalf("dirty pages after publishes = %d, want 2", st.DirtyPages)
	}
	if e := c.StartRankEpochDelta(2); e != 2 {
		t.Fatalf("second epoch = %d", e)
	}
	c.RunUntilIdle(10)
	re, _ = c.QB.RankEpochInfo(2)
	if !re.Done || !re.Delta {
		t.Fatalf("epoch 2 = %+v, want finalized delta", re)
	}
	if !sort.StringsAreSorted(re.Dirty) {
		t.Fatalf("dirty snapshot not sorted: %v", re.Dirty)
	}
	wantDirty := []string{"dweb://re/08", "dweb://re/09"}
	if len(re.Dirty) != 2 || re.Dirty[0] != wantDirty[0] || re.Dirty[1] != wantDirty[1] {
		t.Fatalf("dirty snapshot = %v, want %v", re.Dirty, wantDirty)
	}
	st = c.QB.RankStaleness()
	if st.Epoch != 2 || st.LastFull != 1 || st.DeltasSinceFull != 1 || st.DirtyPages != 0 {
		t.Fatalf("staleness after delta epoch = %+v", st)
	}

	// The delta vector must sit within the documented drift bound of an
	// exact recompute over the same chain graph.
	g := rank.NewGraph(c.QB.LinkGraph())
	exact := rank.Compute(g, rank.DefaultOptions())
	got := c.QB.PageRanks()
	for i := 0; i < g.Size(); i++ {
		if d := math.Abs(got[g.URL(i)] - exact.Ranks[i]); d > 1e-2 {
			t.Fatalf("page %s drifted %g from exact rank", g.URL(i), d)
		}
	}

	// Epoch 3 is another delta; deltas accumulate.
	publish(10, 11)
	if e := c.StartRankEpochDelta(2); e != 3 {
		t.Fatalf("third epoch = %d", e)
	}
	c.RunUntilIdle(10)
	re, _ = c.QB.RankEpochInfo(3)
	if !re.Done || !re.Delta {
		t.Fatalf("epoch 3 = %+v, want finalized delta", re)
	}
	st = c.QB.RankStaleness()
	if st.Epoch != 3 || st.LastFull != 1 || st.DeltasSinceFull != 2 {
		t.Fatalf("staleness after second delta epoch = %+v", st)
	}

	// Epoch 4 hits the cadence: full again, drift reset.
	if e := c.StartRankEpochDelta(2); e != 4 {
		t.Fatalf("fourth epoch = %d", e)
	}
	c.RunUntilIdle(10)
	re, _ = c.QB.RankEpochInfo(4)
	if !re.Done || re.Delta {
		t.Fatalf("epoch 4 = %+v, want finalized full (cadence)", re)
	}
	st = c.QB.RankStaleness()
	if st.Epoch != 4 || st.LastFull != 4 || st.DeltasSinceFull != 0 {
		t.Fatalf("staleness after cadence epoch = %+v", st)
	}
}

// lo1 avoids a modulo-by-zero when the first publish block starts at 0.
func lo1(lo int) int {
	if lo == 0 {
		return 1
	}
	return lo
}
