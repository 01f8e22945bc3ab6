package core

import (
	"context"
	"errors"
	"runtime"
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
// the frontend with the fewest in-flight queries, ties broken by the
// least accumulated simulated serving time, remaining ties by a
// round-robin cursor. A sequential driver (in-flight always zero)
// therefore gets a reproducible least-simulated-load schedule — same
// seed, same assignment sequence — while concurrent drivers still spread
// load. Query *results* are frontend-independent (every frontend reads
// the same DHT state), so responses are byte-identical across pool sizes
// and balancing schedules; only simulated costs shift with the links
// used.
//
// With hedged reads enabled (size ≥ 2), each shard leg runs on whichever
// of its frontend and a buddy (the next one) measured the faster pointer
// read, and a failed leg is retried on the other. A wave with a shard
// not yet measured on both hedges its slowest or failed leg on the buddy
// instead, measuring both — see docs/serving.md, "Hedged reads".
type FrontendPool struct {
	cluster *Cluster
	fronts  []*Frontend
	hedged  bool

	// defaultDeadline applies to queries that carry none of their own.
	defaultDeadline time.Duration

	mu       sync.Mutex
	inflight []int
	busy     []time.Duration // accumulated simulated serving time
	served   []int64
	rr       int // round-robin cursor for full ties

	deadlineMisses int64
}

// NewFrontendPool builds a pool of size frontends over the cluster's
// peers (frontend i attaches to peer i mod NumPeers). Size is clamped to
// at least 1. Hedged reads require at least two frontends; a size-1
// hedged pool silently runs unhedged (there is no second device to
// route or duplicate onto).
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
		served:          make([]int64, size),
	}
	for i := 0; i < size; i++ {
		p.fronts = append(p.fronts, NewFrontend(c, c.Peers[i%len(c.Peers)]))
	}
	if p.hedged {
		for i, f := range p.fronts {
			buddy := (i + 1) % size
			f.hedge = p.fronts[buddy]
			f.hedgeBill = func(d time.Duration) {
				p.mu.Lock()
				p.busy[buddy] += d
				p.mu.Unlock()
			}
		}
	}
	return p
}

// Size returns the number of frontends in the pool.
func (p *FrontendPool) Size() int { return len(p.fronts) }

// Hedged reports whether shard fetches are hedged across frontends.
func (p *FrontendPool) Hedged() bool { return p.hedged }

// Frontend returns the i-th frontend (experiment harnesses, Fetch).
func (p *FrontendPool) Frontend(i int) *Frontend { return p.fronts[i] }

// acquire routes the next query: fewest in-flight, then least simulated
// busy time, then the round-robin cursor. Scanning starts at the cursor
// so full ties rotate through the pool instead of pinning frontend 0.
func (p *FrontendPool) acquire() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for off := 0; off < len(p.fronts); off++ {
		i := (p.rr + off) % len(p.fronts)
		switch {
		case best < 0,
			p.inflight[i] < p.inflight[best],
			p.inflight[i] == p.inflight[best] && p.busy[i] < p.busy[best]:
			best = i
		}
	}
	p.rr = (best + 1) % len(p.fronts)
	p.inflight[best]++
	return best
}

// release books a finished query against its frontend's load.
func (p *FrontendPool) release(i int, cost netsim.Cost, deadlineMiss bool) {
	p.mu.Lock()
	p.inflight[i]--
	p.busy[i] += cost.Latency
	p.served[i]++
	if deadlineMiss {
		p.deadlineMisses++
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
	BusySim time.Duration
	// Hedges counts shard fetches this frontend duplicated onto its
	// buddy; legs routed there only bill the buddy's BusySim.
	Hedges int64
	Cache  CacheStats
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
	// Cache and hedge counters live on the frontends; read them outside
	// the pool lock (they have their own synchronization).
	for i, f := range p.fronts {
		st.Frontends[i].Hedges = f.hedges.Load()
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
