// Package netsim simulates the peer-to-peer network underneath the DWeb.
//
// The simulator is synchronous and cost-accounted rather than real-time:
// every RPC executes the target node's handler immediately (on the caller's
// goroutine) and returns a Cost describing the simulated latency and bytes
// on the wire. Sequential RPCs add their costs; parallel fan-outs combine
// with Par (max of latencies, sum of bytes). This keeps experiments
// deterministic and lets a laptop simulate thousands of nodes.
//
// The network is safe for concurrent callers, and concurrency does not
// cost reproducibility: every (caller, target) pair owns an RNG stream
// derived from (Config.Seed, caller, target), so the i-th message on a
// link always sees the same jitter/drop/shedding draws no matter how
// goroutines interleave across links.
//
// Failure injection covers the paper's resilience claims: nodes can be
// marked down (crash faults), the network can be split into partitions,
// links can drop messages probabilistically, and per-node load (for the
// DDoS experiment) inflates service time with an M/M/1-style queueing
// delay and sheds requests beyond capacity.
package netsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/xrand"
)

// NodeID addresses a node on the simulated network.
type NodeID string

// Errors returned by CallCtx.
var (
	ErrNodeDown      = errors.New("netsim: target node is down")
	ErrUnknownNode   = errors.New("netsim: unknown node")
	ErrPartitioned   = errors.New("netsim: nodes are in different partitions")
	ErrDropped       = errors.New("netsim: message dropped")
	ErrOverloaded    = errors.New("netsim: target node overloaded")
	ErrNoHandler     = errors.New("netsim: node has no handler")
	ErrSelfUnderload = errors.New("netsim: caller node is down")
	// ErrCancelled is returned by CallCtx when the request context was
	// done before the message hit the wire. The error wraps the context's
	// own error too, so callers can match either sentinel.
	ErrCancelled = errors.New("netsim: call cancelled")
)

// Cost accounts the simulated expense of one or more RPCs.
type Cost struct {
	Latency time.Duration // simulated wall time
	Bytes   int64         // bytes moved on the wire
	Msgs    int           // message count (requests, incl. responses implied)
}

// MarshalJSON is the one JSON form of a simulated cost: the latency as a
// duration string and in whole microseconds, then bytes and messages.
func (c Cost) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Latency   string `json:"latency"`
		LatencyUS int64  `json:"latency_us"`
		Bytes     int64  `json:"bytes"`
		Msgs      int    `json:"msgs"`
	}{c.Latency.String(), c.Latency.Microseconds(), c.Bytes, c.Msgs})
}

// Seq returns the cost of performing c then d sequentially.
func (c Cost) Seq(d Cost) Cost {
	return Cost{Latency: c.Latency + d.Latency, Bytes: c.Bytes + d.Bytes, Msgs: c.Msgs + d.Msgs}
}

// Par returns the cost of performing c and d in parallel.
func (c Cost) Par(d Cost) Cost {
	lat := c.Latency
	if d.Latency > lat {
		lat = d.Latency
	}
	return Cost{Latency: lat, Bytes: c.Bytes + d.Bytes, Msgs: c.Msgs + d.Msgs}
}

// Sizer lets payload types report their wire size. Payloads that do not
// implement Sizer are charged DefaultMsgBytes.
type Sizer interface{ WireSize() int }

// DefaultMsgBytes is the assumed wire size of a payload without a Sizer.
const DefaultMsgBytes = 128

// Handler processes one inbound RPC on a node and returns the response
// payload. Handlers run synchronously on the caller's goroutine and must be
// safe for concurrent use.
type Handler func(from NodeID, req any) (resp any, err error)

// Config tunes the latency model.
type Config struct {
	Seed uint64 // RNG seed; 0 means 1

	// BaseLatency is the minimum one-way delay on any link.
	BaseLatency time.Duration
	// MaxExtra is the additional one-way delay between the two most
	// distant nodes; per-pair delay scales with distance in a random 2-D
	// embedding.
	MaxExtra time.Duration
	// JitterFrac adds a uniform ±frac jitter to every message.
	JitterFrac float64
	// Bandwidth is bytes per simulated second per link; 0 disables the
	// serialization-delay term.
	Bandwidth float64
}

// DefaultConfig models a modest wide-area swarm: 10ms floor, up to +80ms
// with distance, 10% jitter, 10 MB/s links.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		BaseLatency: 10 * time.Millisecond,
		MaxExtra:    80 * time.Millisecond,
		JitterFrac:  0.10,
		Bandwidth:   10 << 20,
	}
}

type nodeState struct {
	handler   Handler
	x, y      float64 // position in the unit square (distance → latency)
	down      bool
	partition int
	capacity  float64 // requests per simulated second; 0 = unlimited
	offered   float64 // current offered load, requests per second
}

// Network is the simulated network. Safe for concurrent use.
type Network struct {
	cfg Config

	mu       sync.Mutex
	rng      *xrand.RNG // topology placement only
	nodes    map[NodeID]*nodeState
	dropRate float64

	linksMu sync.Mutex
	links   map[linkKey]*linkStream

	stats Stats
}

// linkKey identifies one directed (caller, target) pair.
type linkKey struct {
	from, to NodeID
}

// linkStream is the derived RNG of one directed link. Its mutex orders
// draws so the stream position equals the link's message count.
type linkStream struct {
	mu  sync.Mutex
	rng *xrand.RNG
}

// linkStream returns (creating on first use) the RNG stream of a link.
func (n *Network) linkStream(from, to NodeID) *linkStream {
	key := linkKey{from, to}
	n.linksMu.Lock()
	defer n.linksMu.Unlock()
	ls, ok := n.links[key]
	if !ok {
		seed := n.cfg.Seed
		if seed == 0 {
			seed = 1
		}
		ls = &linkStream{rng: xrand.NewNamed(seed, "link:"+string(from)+"\x00"+string(to))}
		n.links[key] = ls
	}
	return ls
}

// Stats aggregates global traffic counters.
type Stats struct {
	Calls    int64
	Failures int64
	Bytes    int64
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:   cfg,
		rng:   xrand.New(seed),
		nodes: make(map[NodeID]*nodeState),
		links: make(map[linkKey]*linkStream),
	}
}

// Register adds a node. Re-registering an existing ID replaces its handler
// but keeps its position and fault state.
func (n *Network) Register(id NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.nodes[id]; ok {
		st.handler = h
		return
	}
	n.nodes[id] = &nodeState{
		handler: h,
		x:       n.rng.Float64(),
		y:       n.rng.Float64(),
	}
}

// Unregister removes a node entirely.
func (n *Network) Unregister(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

// SetDown marks a node as crashed (true) or recovered (false).
func (n *Network) SetDown(id NodeID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.nodes[id]; ok {
		st.down = down
	}
}

// IsDown reports whether the node is currently marked down.
func (n *Network) IsDown(id NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.nodes[id]
	return ok && st.down
}

// SetPartition assigns nodes to partition groups. Calls between different
// groups fail with ErrPartitioned. Nodes not present in the map join group
// 0. Passing nil heals all partitions.
func (n *Network) SetPartition(groups map[NodeID]int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, st := range n.nodes {
		if groups == nil {
			st.partition = 0
			continue
		}
		st.partition = groups[id]
	}
}

// SetDropRate sets the probability that any message is silently dropped.
func (n *Network) SetDropRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropRate = p
}

// SetCapacity sets a node's service capacity in requests per simulated
// second. Zero means unlimited (no queueing model).
func (n *Network) SetCapacity(id NodeID, rps float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.nodes[id]; ok {
		st.capacity = rps
	}
}

// SetOfferedLoad sets the node's current offered load (requests per
// simulated second), e.g. attack traffic aimed at it. The queueing model
// uses utilization = offered/capacity.
func (n *Network) SetOfferedLoad(id NodeID, rps float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.nodes[id]; ok {
		st.offered = rps
	}
}

// StatsSnapshot returns a copy of the global counters.
func (n *Network) StatsSnapshot() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the global counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// payloadSize estimates the wire size of a payload.
func payloadSize(p any) int64 {
	if s, ok := p.(Sizer); ok {
		return int64(s.WireSize())
	}
	return DefaultMsgBytes
}

// CallCtx performs a synchronous RPC from one node to another and returns
// the response together with the simulated round-trip cost. The returned
// cost is meaningful even when err != nil (a timeout still costs time:
// failed calls are charged one base round trip so that retry loops
// accumulate simulated delay).
//
// When ctx is already done the call short-circuits BEFORE touching any
// RNG stream — a cancelled call consumes no drop/shedding/jitter draws,
// so the i-th *executed* message on every link still observes the same
// draws no matter how many abandoned calls were interleaved with it (the
// per-seed determinism contract survives cancellation; pinned by the
// interleaving tests). A nil ctx never cancels.
//
// A short-circuited call costs nothing and moves no bytes: it never
// reached the wire. Wave-level accounting stays with the caller — the
// legs a wave completed before the cancel keep their full cost, so a
// cancelled wave is costed as the partial wave it actually ran. The
// returned error wraps both ErrCancelled and the context's own error.
//
// Cancellation cannot interrupt a handler mid-execution: the simulator
// is synchronous, so a call that starts always completes and is costed
// in full. The deterministic cancellation points are the call
// boundaries.
func (n *Network) CallCtx(ctx context.Context, from, to NodeID, req any) (resp any, cost Cost, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, Cost{}, fmt.Errorf("%w: %w", ErrCancelled, cerr)
		}
	}
	n.mu.Lock()
	src, okSrc := n.nodes[from]
	dst, okDst := n.nodes[to]
	n.stats.Calls++

	fail := func(e error) (any, Cost, error) {
		n.stats.Failures++
		c := Cost{Latency: 2 * n.cfg.BaseLatency, Msgs: 1}
		n.mu.Unlock()
		return nil, c, e
	}

	switch {
	case !okSrc:
		return fail(fmt.Errorf("%w: %s", ErrUnknownNode, from))
	case !okDst:
		return fail(fmt.Errorf("%w: %s", ErrUnknownNode, to))
	case src.down:
		return fail(ErrSelfUnderload)
	case dst.down:
		return fail(ErrNodeDown)
	case src.partition != dst.partition:
		return fail(ErrPartitioned)
	case dst.handler == nil:
		return fail(ErrNoHandler)
	}

	// Snapshot everything the draw section needs, then release n.mu:
	// per-message randomness only serializes on the link's own stream, so
	// concurrent calls on different links never contend on the global
	// lock while drawing. (Node positions are set once at registration
	// and never move, so dist is safe to carry out of the lock.)
	dropRate := n.dropRate
	var rho float64
	if dst.capacity > 0 && dst.offered > 0 {
		rho = dst.offered / dst.capacity
	}
	dist := nodeDist(src, dst)
	handler := dst.handler
	reqBytes := payloadSize(req)
	link := n.linkStream(from, to)
	n.mu.Unlock()

	// The draw order per message is fixed: drop, shedding, jitter — each
	// conditional on its feature being active.
	link.mu.Lock()
	draw := link.rng.Float64
	failDrawn := func(e error) (any, Cost, error) {
		link.mu.Unlock()
		n.mu.Lock()
		return fail(e) // fail unlocks n.mu
	}

	if dropRate > 0 && draw() < dropRate {
		return failDrawn(ErrDropped)
	}

	// Queueing model: overload sheds requests, high utilization inflates
	// service time (M/M/1 waiting factor, capped).
	var queueDelay time.Duration
	if rho >= 1 {
		// Saturated: only capacity/offered of requests survive.
		if !(draw() < 1/rho) {
			return failDrawn(ErrOverloaded)
		}
		queueDelay = time.Duration(20) * n.cfg.BaseLatency
	} else if rho > 0 {
		wait := rho / (1 - rho)
		if wait > 20 {
			wait = 20
		}
		queueDelay = time.Duration(float64(n.cfg.BaseLatency) * wait)
	}

	oneWay := n.linkLatency(dist, draw)
	link.mu.Unlock()

	resp, err = handler(from, req)

	n.mu.Lock()
	respBytes := payloadSize(resp)
	totalBytes := reqBytes + respBytes
	var xfer time.Duration
	if n.cfg.Bandwidth > 0 {
		xfer = time.Duration(float64(totalBytes) / n.cfg.Bandwidth * float64(time.Second))
	}
	cost = Cost{
		Latency: 2*oneWay + queueDelay + xfer,
		Bytes:   totalBytes,
		Msgs:    1,
	}
	n.stats.Bytes += totalBytes
	if err != nil {
		n.stats.Failures++
	}
	n.mu.Unlock()
	return resp, cost, err
}

// nodeDist is the normalized [0,1] distance between two nodes in the 2-D
// embedding. Positions are written once at registration, so the result
// is safe to carry outside n.mu.
func nodeDist(a, b *nodeState) float64 {
	dx, dy := a.x-b.x, a.y-b.y
	return math.Sqrt(dx*dx+dy*dy) / math.Sqrt2
}

// linkLatency computes the one-way delay for a link of the given
// normalized distance, drawing the jitter from the supplied stream.
func (n *Network) linkLatency(dist float64, draw func() float64) time.Duration {
	lat := float64(n.cfg.BaseLatency) + dist*float64(n.cfg.MaxExtra)
	if n.cfg.JitterFrac > 0 {
		j := 1 + n.cfg.JitterFrac*(2*draw()-1)
		lat *= j
	}
	return time.Duration(lat)
}
