package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "Serving tier: frontend pool size, hedged reads, and deadline misses",
		Claim: "the frontend is stateless — any device can run one, so heavy query traffic is served by many frontends behind a balancer",
		Run:   runE14,
	})
}

// runE14 measures the serving tier in the simulator's own currency. A
// fixed 8-client query workload is replayed against pools of 1/2/4/8
// frontends, hedging (pairing) off and on. Reported per configuration:
//
//   - p50/p99 simulated per-query latency: pairing attacks the p99 tail
//     (a shard fetch goes to the buddy of a frontend pair when both
//     measured its pointer read and the buddy's was faster, to the
//     querying frontend otherwise; a failed fetch is retried on the
//     other);
//   - deadline miss rate against a fixed per-query simulated deadline,
//     set just above the warm median so the column reads the tail;
//   - serving makespan (the busiest frontend's accumulated simulated
//     time — each frontend serializes its own queries) and the
//     throughput speedup over pool=1.
//
// The tier is measured in steady state. A warm query costs one verified
// pointer RPC per shard; 96 queries are far too few to amortize one cold
// load per frontend and shard (quorum walk, segment fetches, merge),
// which would otherwise be most of every makespan and more of it the
// larger the pool. So the workload is replayed — an undeadlined pass to
// let cold loads finish, then a measured pass — until a measured pass
// runs entirely warm (core.CacheStats.WarmSince), and that pass is the
// row. Warm-up goes through the pool like the measurement does: legs
// routed onto a buddy bill the buddy's load even on a direct frontend
// call, so warming the frontends one by one would leave the balancer a
// skewed load view.
func runE14(seed uint64) []*metrics.Table {
	const (
		peers      = 24
		bees       = 6
		docs       = 96
		clients    = 8
		perClient  = 12
		deadlineMS = 40
		maxReplays = 20
	)

	t := metrics.NewTable("E14 — serving tier: pool size × hedging",
		"pool", "hedged", "p50 ms", "p99 ms", "miss rate", "makespan ms", "speedup")
	var baseMakespan time.Duration
	for _, hedged := range []bool{false, true} {
		for _, size := range []int{1, 2, 4, 8} {
			c, corp := buildWorkloadCluster(seed, peers, bees, docs)
			pool := core.NewFrontendPool(c, size, hedged, deadlineMS*time.Millisecond)
			// One fixed workload for every configuration: the columns
			// compare pool shapes, not query samples.
			queries := corp.Queries(seed, clients*perClient, 2)

			var lat metrics.Histogram
			var misses int
			var makespan time.Duration
			for replay := 0; ; replay++ {
				if replay == maxReplays {
					panic(fmt.Sprintf("E14 pool=%d hedged=%v: still loading shards cold after %d replays", size, hedged, replay))
				}
				for _, q := range queries {
					if _, err := pool.ExecuteCtx(context.Background(), core.Query{Raw: q.Text, Mode: core.PlanAll, Limit: 10, Deadline: time.Hour}); err != nil {
						panic(fmt.Sprintf("E14 warm-up %q: %v", q.Text, err))
					}
				}

				before, cache := pool.Stats().Frontends, pool.CacheStatsSnapshot()
				lat, misses = metrics.Histogram{}, 0
				for i, q := range queries {
					resp, err := pool.ExecuteCtx(context.Background(), core.Query{Raw: q.Text, Mode: core.PlanAll, Limit: 10})
					if errors.Is(err, core.ErrDeadlineExceeded) {
						misses++
					} else if err != nil {
						panic(fmt.Sprintf("E14 query %d: %v", i, err))
					}
					lat.AddDuration(resp.Cost.Latency)
				}
				makespan = 0
				for i, f := range pool.Stats().Frontends {
					makespan = max(makespan, f.BusySim-before[i].BusySim)
				}
				if pool.CacheStatsSnapshot().WarmSince(cache) {
					break
				}
			}

			if size == 1 && !hedged {
				baseMakespan = makespan
			}
			speedup := 0.0
			if makespan > 0 && baseMakespan > 0 {
				speedup = float64(baseMakespan) / float64(makespan)
			}
			t.AddRow(size, onOff(hedged),
				lat.Median()*1000, lat.Quantile(0.99)*1000,
				float64(misses)/float64(len(queries)),
				float64(makespan)/float64(time.Millisecond), speedup)
		}
	}
	return []*metrics.Table{t}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
