package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/index"
)

// TestPoolBalancerDeterministicLeastLoaded: under a sequential driver
// (in-flight always zero) the balancer is least-simulated-busy with a
// round-robin cursor — the same cost sequence yields the same
// assignment sequence every run.
func TestPoolBalancerDeterministicLeastLoaded(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 3, false, 0)
	for i := 0; i < 9; i++ {
		if _, err := pool.ExecuteCtx(context.Background(), Query{Raw: "red apples", Mode: PlanAll, Limit: 5}); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	var total int64
	for i, f := range st.Frontends {
		if f.Served == 0 {
			t.Fatalf("frontend %d served nothing: %+v", i, st.Frontends)
		}
		if f.InFlight != 0 {
			t.Fatalf("frontend %d still in flight after a sequential drive", i)
		}
		total += f.Served
	}
	if total != 9 {
		t.Fatalf("served %d queries, want 9", total)
	}
}

// TestPoolHedgeRescuesTamperedReplica: the hedged leg is the wave's
// failed leg, so a segment replica tampered on the primary frontend's
// own peer — hash verification fails there — is rescued by the buddy's
// clean fetch and the query succeeds with full results.
func TestPoolHedgeRescuesTamperedReplica(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 2, true, 0)
	primary := pool.Frontend(0)

	// Locate the single shard behind "orchard" and tamper its segment
	// replica locally on the primary's peer. GetImmutable serves the
	// local replica first, so the primary's fetch sees garbage and
	// fails the digest check; the buddy (a different peer) reads a
	// clean replica.
	shard := index.ShardOf("orchard", c.Config().NumShards)
	ptr, _, err := readShardPointer(primary.peer.DHT(), shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(ptr.Digests) == 0 {
		t.Fatal("orchard's shard has no segments")
	}
	primary.peer.DHT().StoreLocal(
		dht.KeyOfString(index.SegmentKey(ptr.Digests[0])), []byte("tampered"), 0)

	// Unhedged control: the same tampered frontend alone fails loudly.
	alone := NewFrontend(c, primary.peer)
	if _, err := alone.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("unhedged tampered frontend: err = %v, want ErrShardUnavailable", err)
	}

	// Hedged pool: frontend 0 serves the first query, its leg fails,
	// the hedge reruns it on frontend 1 and the wave succeeds.
	resp, err := pool.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll})
	if err != nil {
		t.Fatalf("hedge did not rescue the tampered leg: %v", err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("rescued query returned no results")
	}
	if got := pool.Frontend(0).hedges.Load(); got == 0 {
		t.Fatal("no hedge recorded for the rescued wave")
	}
	// The buddy's serving time was billed for the duplicate.
	if busy := pool.Stats().Frontends[1].BusySim; busy == 0 {
		t.Fatalf("hedge time not billed to the buddy: %+v", pool.Stats().Frontends)
	}
}

// TestPoolDefaultDeadlineApplies: queries inherit the pool's default
// deadline, an explicit Query.Deadline overrides it, and only real
// deadline misses count (see ExecuteCtx).
func TestPoolDefaultDeadlineApplies(t *testing.T) {
	c, _ := queryCluster(t)
	pool := NewFrontendPool(c, 1, false, time.Millisecond)
	if _, err := pool.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("default deadline not applied: %v", err)
	}
	if _, err := pool.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll, Deadline: time.Hour}); err != nil {
		t.Fatalf("explicit deadline should override the default: %v", err)
	}
	if misses := pool.Stats().DeadlineMisses; misses != 1 {
		t.Fatalf("deadline misses = %d, want 1", misses)
	}
}
