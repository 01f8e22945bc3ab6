package queenbee

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPoolSoakMatchesSingleFrontend is the serving-tier determinism
// soak: a pool of 4 hedged frontends must answer every workload query
// byte-identically to a single sequential frontend on the same seed —
// first under a sequential driver (the deterministic least-loaded
// schedule), then with all 16 clients racing. (The TestPool name prefix
// keeps it inside CI's -count=2 determinism re-run.)
func TestPoolSoakMatchesSingleFrontend(t *testing.T) {
	single, corp := soakEngine(t, 11, 24)
	pooled, _ := soakEngine(t, 11, 24, WithFrontendPool(4), WithHedgedReads(true))

	baseline := make([][]string, soakClients)
	for c := 0; c < soakClients; c++ {
		for _, q := range soakWorkload(corp, c) {
			resp, err := q.run(single)
			if err != nil {
				t.Fatalf("single %s: %v", q.label, err)
			}
			baseline[c] = append(baseline[c], canonical(t, resp))
		}
	}

	// Sequential pass over the pool: deterministic balancing, responses
	// must match the single frontend exactly.
	for c := 0; c < soakClients; c++ {
		for i, q := range soakWorkload(corp, c) {
			resp, err := q.run(pooled)
			if err != nil {
				t.Fatalf("pooled sequential %s: %v", q.label, err)
			}
			if got := canonical(t, resp); got != baseline[c][i] {
				t.Fatalf("pooled sequential %s diverged:\npooled %s\nsingle %s", q.label, got, baseline[c][i])
			}
		}
	}

	// Concurrent pass: all clients at once against the warm pool.
	var wg sync.WaitGroup
	for c := 0; c < soakClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range soakWorkload(corp, c) {
				resp, err := q.run(pooled)
				if err != nil {
					t.Errorf("pooled concurrent client %d %s: %v", c, q.label, err)
					return
				}
				if got := canonical(t, resp); got != baseline[c][i] {
					t.Errorf("pooled concurrent client %d %s diverged:\npooled %s\nsingle %s",
						c, q.label, got, baseline[c][i])
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// The tier actually did its job: load spread beyond one frontend and
	// hedges were issued.
	ps := pooled.PoolStats()
	if ps.Size != 4 || !ps.Hedged {
		t.Fatalf("pool shape = %+v", ps)
	}
	loaded, hedges := 0, int64(0)
	for _, f := range ps.Frontends {
		if f.Served > 0 {
			loaded++
		}
		hedges += f.Hedges
	}
	if loaded < 2 {
		t.Fatalf("balancer pinned all load on %d frontend(s): %+v", loaded, ps.Frontends)
	}
	if hedges == 0 {
		t.Fatal("hedged pool issued no hedged shard fetches")
	}
}

// TestPoolConcurrentThroughput measures the serving tier's win in the
// simulator's own currency: each frontend serializes its queries in
// simulated time, so the tier's makespan is the busiest frontend. A
// pool of 4 must cut the makespan of the same 8-client workload by ≥2×
// against pool=1 on the same seed — the multi-frontend serving claim.
//
// The claim is about steady state, so passes are discarded until one is
// served entirely warm (CacheStats.WarmSince: no chain-cache miss, no
// pointer quorum walk on any frontend) and that pass is the one
// measured, whatever it reads. A warm query costs at most one verified
// pointer RPC per shard; against that, the one cold load per frontend
// and shard (walk, segment fetches, merge) would otherwise be most of a
// 48-query makespan, and more of it the larger the pool.
//
// The pool must also spread its load ≥2×: summed busy time over the
// busiest frontend's, read from the cumulative BusySim since boot, the
// load each frontend carried over the whole run, cold passes included.
func TestPoolConcurrentThroughput(t *testing.T) {
	run := func(pool int) (busiest time.Duration, spread float64) {
		e, corp := soakEngine(t, 5, 24, WithFrontendPool(pool))
		pass := func() {
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, q := range soakWorkload(corp, c) {
						if _, err := q.run(e); err != nil {
							t.Errorf("pool=%d client %d %s: %v", pool, c, q.label, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		}
		for tries := 0; ; tries++ {
			if tries == 20 {
				t.Fatalf("pool=%d still loading shards cold after %d passes", pool, tries)
			}
			before, cache := e.PoolStats().Frontends, e.CacheStats()
			pass()
			busiest = 0
			for i, f := range e.PoolStats().Frontends {
				busiest = max(busiest, f.BusySim-before[i].BusySim)
			}
			if e.CacheStats().WarmSince(cache) {
				break
			}
		}
		if busiest == 0 {
			t.Fatalf("pool=%d booked no simulated serving time", pool)
		}
		var sum, most time.Duration
		for _, f := range e.PoolStats().Frontends {
			sum += f.BusySim
			most = max(most, f.BusySim)
		}
		return busiest, float64(sum) / float64(most)
	}
	mk1, _ := run(1)
	mk4, spread := run(4)
	speedup := float64(mk1) / float64(mk4)
	t.Logf("simulated serving makespan: pool=1 %v, pool=4 %v → %.1f× throughput (in-pool spread since boot %.2f×)",
		mk1, mk4, speedup, spread)
	if speedup < 2 {
		t.Fatalf("pool=4 throughput = %.2f× pool=1, want ≥ 2×", speedup)
	}
	if spread < 2 {
		t.Fatalf("pool=4 spread its load only %.2f×, want ≥ 2×", spread)
	}
}

// TestPoolDeadlineShorterThanShardRTT: a simulated deadline below one
// shard round trip reliably fails with the typed error and a partial
// trace — never a hang, never a torn cache — and the same query
// succeeds right afterwards against the caches the abandoned wave left
// behind.
func TestPoolDeadlineShorterThanShardRTT(t *testing.T) {
	e, corp := soakEngine(t, 9, 12, WithFrontendPool(2))
	q := corp.Vocab(0) + " " + corp.Vocab(1)

	for round := 0; round < 2; round++ {
		resp, err := e.Query(q).All().Deadline(time.Millisecond).Run()
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("round %d: err = %v, want ErrDeadlineExceeded", round, err)
		}
		if resp == nil || resp.Explain == nil || !resp.Explain.Partial {
			t.Fatalf("round %d: deadline response missing partial trace: %+v", round, resp)
		}
		if len(resp.Explain.Shards) == 0 {
			t.Fatalf("round %d: partial trace lists no shards: %+v", round, resp.Explain)
		}
		if len(resp.Results) != 0 || resp.Total != 0 {
			t.Fatalf("round %d: deadline response leaked results: %+v", round, resp)
		}
		if resp.Cost.Latency < time.Millisecond {
			t.Fatalf("round %d: abandoned wave costs %v, want ≥ the 1ms deadline", round, resp.Cost.Latency)
		}
	}
	if misses := e.PoolStats().DeadlineMisses; misses != 2 {
		t.Fatalf("deadline misses = %d, want 2", misses)
	}

	// The abandoned waves left the tier consistent: the same query with
	// room to breathe succeeds. (A pool-wide default deadline and its
	// override are TestPoolDefaultDeadlineApplies in internal/core.)
	resp, err := e.Query(q).All().Run()
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("query after deadline misses: %v (results %d)", err, len(resp.Results))
	}
}

// cancelWhen is a context that flips to cancelled once its predicate
// holds. Done is nil (the read path polls Err at its deterministic
// checkpoints), which makes mid-wave cancellation reproducible: the
// predicate is driven by simulation state, not wall-clock timing.
type cancelWhen struct{ cond func() bool }

func (c cancelWhen) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c cancelWhen) Done() <-chan struct{}       { return nil }
func (c cancelWhen) Value(any) any               { return nil }
func (c cancelWhen) Err() error {
	if c.cond() {
		return context.Canceled
	}
	return nil
}

// checkGoroutineLeak fails t when goroutines started during the test
// are still alive 2 s after it (and every later-registered cleanup)
// finished. Call it first; not for t.Parallel tests.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestQueryCancelBetweenShardFetches is the mid-chain cancellation soak,
// cut where the read path is sequential by construction: a one-term
// query loads one shard as one leg, and that leg fetches its chain's
// segments one after another. A context that cancels once the first
// segment is cached therefore stops the query deterministically between
// segment fetches. The query must return ErrDeadlineExceeded with a
// partial trace, leave the caches consistent (asserted via CacheStats
// before and after) with no stranded goroutine, and the rerun must
// produce exactly the never-cancelled engine's results.
func TestQueryCancelBetweenShardFetches(t *testing.T) {
	checkGoroutineLeak(t)
	baselineEngine, corp := soakEngine(t, 13, 12)
	e, _ := soakEngine(t, 13, 12)
	q := corp.Vocab(0)

	baseline, err := baselineEngine.Query(q).All().Explain().Run()
	if err != nil {
		t.Fatal(err)
	}
	if cs := baselineEngine.CacheStats(); len(baseline.Explain.Shards) != 1 || cs.SegEntries < 2 {
		t.Fatalf("workload shape changed: %q loads shards %v with %d segment(s); need 1 shard with a chain of ≥ 2",
			q, baseline.Explain.Shards, cs.SegEntries)
	}

	before := e.CacheStats()
	if before.SegEntries != 0 || before.ChainEntries != 0 {
		t.Fatalf("test engine not cold: %+v", before)
	}
	ctx := cancelWhen{cond: func() bool { return e.CacheStats().SegEntries >= 1 }}
	resp, err := e.QueryCtx(ctx, q).All().Run()
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded wrapping context.Canceled", err)
	}
	if resp == nil || resp.Explain == nil || !resp.Explain.Partial {
		t.Fatalf("cancelled query missing partial trace: %+v", resp)
	}
	if resp.Cost.Msgs == 0 {
		t.Fatal("the completed first fetch must be costed")
	}

	// Exactly the first segment landed; the abandoned chain cached no
	// merged view and left no wedged flight.
	mid := e.CacheStats()
	if mid.SegEntries != 1 || mid.ChainEntries != 0 {
		t.Fatalf("after cancel: %d segment / %d chain entries, want exactly 1 / 0", mid.SegEntries, mid.ChainEntries)
	}

	rerun, err := e.Query(q).All().Run()
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	if got, want := canonical(t, rerun), canonical(t, baseline); got != want {
		t.Fatalf("rerun diverged from never-cancelled engine:\ngot  %s\nwant %s", got, want)
	}
	if after := e.CacheStats(); after.ChainEntries != 1 {
		t.Fatalf("after rerun: %d chain entries, want 1", after.ChainEntries)
	}
}
