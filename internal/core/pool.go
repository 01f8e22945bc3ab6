package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/netsim"
)

// FrontendPool is the serving tier: N stateless frontends, each attached
// to its own DWeb peer with its own independent caches, behind one
// deterministic balancer. The paper's "HTML+Javascript frontend" is a
// per-device artifact — scaling reads means scaling frontends — and the
// pool models exactly that: every query is routed to one frontend, whose
// simulated serving time accumulates as that frontend's load.
//
// Balancing is least-loaded and deterministic: the next query goes to
// the frontend with the least projected simulated finish time — its
// accumulated simulated serving time plus, for each query in flight
// there, the mean cost of its own queries so far — ties broken by
// fewer in-flight queries, remaining ties by a round-robin cursor.
// Frontends' costs differ (one whose own DHT node holds a shard's
// pointer reads it for free), so in-flight counts alone would not even
// them out. A sequential driver (in-flight always zero) gets a
// reproducible least-simulated-load schedule — same seed, same
// assignment sequence — while concurrent drivers still spread load;
// once their queries have overlapped, idle time is not banked across a
// moment the pool drains (see release). Query *results* are
// frontend-independent (every frontend reads the same DHT state), so
// responses are byte-identical across pool sizes and balancing
// schedules; only simulated costs shift with the links used.
//
// With hedged reads enabled (size ≥ 2) — the name is kept, but a hedged
// pool is a paired one and duplicates nothing — each frontend is paired
// with a buddy (the next one). A shard leg runs on the buddy only when
// both have measured its pointer read and the buddy's was faster, on the
// querying frontend otherwise, and a failed leg is retried on the other
// device — see docs/serving.md, "Hedged reads".
type FrontendPool struct {
	cluster *Cluster
	fronts  []*Frontend
	hedged  bool

	// defaultDeadline applies to queries that carry none of their own.
	defaultDeadline time.Duration

	mu       sync.Mutex
	inflight []int
	busy     []time.Duration // accumulated simulated serving time
	// own is the part of busy spent on the frontend's own queries; the
	// rest is legs it ran for its buddy's (buddyBill), which served does
	// not count, so the mean query cost is own/served.
	own    []time.Duration
	served []int64
	// load is the busy time the balancer evens out. It grows with busy,
	// but once queries have overlapped (overlapped), a drained pool lifts
	// every frontend's load to the highest: see release.
	load       []time.Duration
	overlapped bool
	rr         int // round-robin cursor for full ties

	deadlineMisses int64
}

// NewFrontendPool builds a pool of size frontends over the cluster's
// peers (frontend i attaches to peer i mod NumPeers). Size is clamped to
// at least 1. Hedged (paired) reads require at least two frontends; a
// size-1 hedged pool silently runs unpaired (there is no second device
// to route onto).
func NewFrontendPool(c *Cluster, size int, hedged bool, defaultDeadline time.Duration) *FrontendPool {
	if size < 1 {
		size = 1
	}
	p := &FrontendPool{
		cluster:         c,
		hedged:          hedged && size > 1,
		defaultDeadline: defaultDeadline,
		inflight:        make([]int, size),
		busy:            make([]time.Duration, size),
		own:             make([]time.Duration, size),
		served:          make([]int64, size),
		load:            make([]time.Duration, size),
	}
	for i := 0; i < size; i++ {
		p.fronts = append(p.fronts, NewFrontend(c, c.Peers[i%len(c.Peers)]))
	}
	if p.hedged {
		for i, f := range p.fronts {
			buddy := (i + 1) % size
			f.buddy = p.fronts[buddy]
			f.buddyBill = func(d time.Duration) {
				p.mu.Lock()
				p.busy[buddy] += d
				p.load[buddy] += d
				p.mu.Unlock()
			}
		}
	}
	return p
}

// Size returns the number of frontends in the pool.
func (p *FrontendPool) Size() int { return len(p.fronts) }

// Hedged reports whether the pool pairs its frontends: each shard fetch
// may run on, or be retried on, a frontend's buddy.
func (p *FrontendPool) Hedged() bool { return p.hedged }

// Frontend returns the i-th frontend (experiment harnesses, Fetch).
func (p *FrontendPool) Frontend(i int) *Frontend { return p.fronts[i] }

// acquire routes the next query: least projected finish, load +
// in-flight × mean cost of the frontend's own queries (the pool's mean
// for a frontend that has served nothing yet), then fewest in-flight,
// then the round-robin cursor. Scanning starts at the cursor so full
// ties rotate through the pool instead of pinning frontend 0.
func (p *FrontendPool) acquire() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var own time.Duration
	var served int64
	inflight := 0
	for i := range p.fronts {
		own += p.own[i]
		served += p.served[i]
		inflight += p.inflight[i]
	}
	finish := func(i int) time.Duration {
		o, n := own, served
		if p.served[i] > 0 {
			o, n = p.own[i], p.served[i]
		}
		if n == 0 {
			return p.load[i]
		}
		return p.load[i] + time.Duration(p.inflight[i])*(o/time.Duration(n))
	}
	best, bestFinish := -1, time.Duration(0)
	for off := 0; off < len(p.fronts); off++ {
		i := (p.rr + off) % len(p.fronts)
		fi := finish(i)
		switch {
		case best < 0,
			fi < bestFinish,
			fi == bestFinish && p.inflight[i] < p.inflight[best]:
			best, bestFinish = i, fi
		}
	}
	p.rr = (best + 1) % len(p.fronts)
	p.inflight[best]++
	if inflight > 0 {
		p.overlapped = true
	}
	return best
}

// release books a finished query against its frontend's load.
//
// A frontend's load counts the time it sat idle while others served as
// credit toward later queries; for one sequential driver that is the
// least-busy schedule. But concurrent clients that all wait for their
// replies meet again with every frontend idle, and a frontend that
// earlier traffic left behind (uneven cold loads) would take most of
// the next queries to repay its whole deficit. So once queries have
// overlapped, a drained pool lifts every load to the highest, and idle
// time is not banked across it. BusySim is not touched.
func (p *FrontendPool) release(i int, cost netsim.Cost, deadlineMiss bool) {
	p.mu.Lock()
	p.inflight[i]--
	p.busy[i] += cost.Latency
	p.own[i] += cost.Latency
	p.load[i] += cost.Latency
	p.served[i]++
	if deadlineMiss {
		p.deadlineMisses++
	}
	drained := !slices.ContainsFunc(p.inflight, func(n int) bool { return n > 0 })
	if p.overlapped && drained {
		most := slices.Max(p.load)
		for j := range p.load {
			p.load[j] = most
		}
	}
	p.mu.Unlock()
}

// ExecuteCtx routes one structured query through the pool with a request
// lifecycle. Queries without their own Deadline inherit the pool's
// default; misses (ErrDeadlineExceeded) are counted in Stats.
func (p *FrontendPool) ExecuteCtx(ctx context.Context, q Query) (SearchResponse, error) {
	if q.Deadline == 0 {
		q.Deadline = p.defaultDeadline
	}
	i := p.acquire()
	// A simulated query never parks on a network. Without this yield one
	// client can run query after query in one time slice while preempted
	// clients hold their frontends' in-flight counts up, and acquire piles
	// the running client's queries onto the other frontends.
	runtime.Gosched()
	resp, err := p.fronts[i].ExecuteCtx(ctx, q)
	// A miss is a missed DEADLINE — simulated or the context's own. A
	// plain cancellation (client disconnect) also surfaces as
	// ErrDeadlineExceeded but is network churn, not a serving-latency
	// signal, so it stays out of the miss counter.
	miss := errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, context.Canceled)
	p.release(i, resp.Cost, miss)
	return resp, err
}

// FrontendLoad is one frontend's serving counters.
type FrontendLoad struct {
	Served   int64
	InFlight int
	// BusySim is the frontend's accumulated simulated serving time — the
	// pool's makespan is the maximum across frontends, and the pool's
	// simulated speedup is the summed busy time over that maximum.
	// Legs a frontend runs for its buddy's queries count here too.
	BusySim time.Duration
	Cache   CacheStats
}

// PoolStats is a point-in-time snapshot of the serving tier.
type PoolStats struct {
	Size           int
	Hedged         bool
	DeadlineMisses int64
	Frontends      []FrontendLoad
}

// Stats snapshots per-frontend load counters and cache occupancy.
func (p *FrontendPool) Stats() PoolStats {
	p.mu.Lock()
	st := PoolStats{
		Size:           len(p.fronts),
		Hedged:         p.hedged,
		DeadlineMisses: p.deadlineMisses,
		Frontends:      make([]FrontendLoad, len(p.fronts)),
	}
	for i := range p.fronts {
		st.Frontends[i] = FrontendLoad{
			Served:   p.served[i],
			InFlight: p.inflight[i],
			BusySim:  p.busy[i],
		}
	}
	p.mu.Unlock()
	// Cache counters live on the frontends; read them outside the pool
	// lock (they have their own synchronization).
	for i, f := range p.fronts {
		st.Frontends[i].Cache = f.CacheStatsSnapshot()
	}
	return st
}

// CacheStatsSnapshot aggregates cache occupancy and traffic across every
// frontend in the pool: bytes, entries, budgets and counters are summed
// (the budget is the total memory the serving tier may hold).
func (p *FrontendPool) CacheStatsSnapshot() CacheStats {
	var out CacheStats
	for _, f := range p.fronts {
		out.Add(f.CacheStatsSnapshot())
	}
	return out
}
