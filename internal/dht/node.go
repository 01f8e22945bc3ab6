package dht

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
)

// ErrNotFound is returned by a read that reaches no copy of the value.
var ErrNotFound = errors.New("dht: value not found")

// Network-wide Kademlia constants: every node runs the same values.
const (
	// alpha is the width of a first-answer walk's lock-step rounds: a cold
	// immutable read and provider discovery. A converging walk asks each of
	// the K closest it knows as soon as it knows it instead
	// (iterativeLookup).
	alpha              = 3
	maxProvidersPerKey = 16 // provider records kept per key
	// retryBackoffBase is the base simulated-time backoff: attempt i
	// waits retryBackoffBase<<i, jittered ±25% deterministically from
	// the (caller, target, attempt) triple.
	retryBackoffBase = 25 * time.Millisecond
)

// Config tunes the Kademlia parameters.
type Config struct {
	// K is the bucket size and replication factor (paper-standard 20; the
	// simulations default to 8 to keep swarms light).
	K int
	// MaxRetries is how many extra attempts a single RPC gets when the
	// failure is transient (netsim.Retryable): dropped messages and shed
	// requests are retried with backoff, structural failures (node down,
	// partition) fail fast. 0 disables retries.
	MaxRetries int
}

// DefaultConfig returns the simulation defaults.
func DefaultConfig() Config {
	return Config{K: 8, MaxRetries: 2}
}

type storedValue struct {
	value []byte
	seq   uint64
}

// Node is one DHT participant. It registers itself as the handler for its
// network address. Safe for concurrent use.
type Node struct {
	cfg  Config
	self Contact
	net  *netsim.Network
	rt   *routingTable

	mu     sync.Mutex
	values map[Key]storedValue
	// providers holds each key's provider set in address order, never
	// written in place (withProvider): GET_PROVIDERS hands it out as is.
	providers map[Key][]Contact
}

// NewNode creates a DHT node bound to addr on the network. Its keyspace ID
// is the hash of the address.
func NewNode(net *netsim.Network, addr netsim.NodeID, cfg Config) *Node {
	if cfg.K <= 0 {
		cfg.K = 8
	}
	n := &Node{
		cfg:       cfg,
		self:      Contact{ID: KeyOfString(string(addr)), Addr: addr},
		net:       net,
		rt:        nil,
		values:    make(map[Key]storedValue),
		providers: make(map[Key][]Contact),
	}
	n.rt = newRoutingTable(n.self.ID, cfg.K)
	net.Register(addr, n.handle)
	return n
}

// Self returns this node's contact record.
func (n *Node) Self() Contact { return n.self }

// K returns the replication factor: the size of the closest set every
// write lands on.
func (n *Node) K() int { return n.cfg.K }

// TableSize returns the number of contacts in the routing table.
func (n *Node) TableSize() int { return n.rt.size() }

// HandleRPC dispatches an inbound DHT RPC. It is exported so higher layers
// (block exchange, QueenBee) can register a combined handler on the same
// network address and delegate DHT traffic here.
func (n *Node) HandleRPC(from netsim.NodeID, req any) (any, error) {
	return n.handle(from, req)
}

// handle dispatches an inbound RPC. Every request teaches the node its
// caller's contact.
func (n *Node) handle(from netsim.NodeID, req any) (any, error) {
	switch m := req.(type) {
	case pingReq:
		n.rt.update(m.From)
		return pingResp{From: n.self}, nil
	case findNodeReq:
		n.rt.update(m.From)
		return findNodeResp{Contacts: n.rt.closest(m.Target, n.cfg.K)}, nil
	case storeReq:
		n.rt.update(m.From)
		n.mu.Lock()
		cur, ok := n.values[m.Key]
		accepted := !ok || m.Seq >= cur.seq
		if accepted {
			n.values[m.Key] = storedValue{value: m.Value, seq: m.Seq}
		}
		n.mu.Unlock()
		// A replica that kept its newer record says so: the writer counts
		// accepted replicas, not delivered messages.
		return storeResp{OK: accepted, Contacts: n.closerIf(m.Closer, m.Key)}, nil
	case findValueReq:
		n.rt.update(m.From)
		n.mu.Lock()
		sv, ok := n.values[m.Key]
		n.mu.Unlock()
		// Replica holders also return closer contacts: versioned reads
		// continue to the k closest and take the highest sequence.
		closer := n.rt.closest(m.Key, n.cfg.K)
		if ok {
			return findValueResp{Found: true, Value: sv.value, Seq: sv.seq, Contacts: closer}, nil
		}
		return findValueResp{Contacts: closer}, nil
	case addProviderReq:
		n.rt.update(m.From)
		n.mu.Lock()
		if set := n.providers[m.Key]; len(set) < maxProvidersPerKey {
			n.providers[m.Key] = withProvider(set, m.Provider)
		}
		n.mu.Unlock()
		return addProviderResp{OK: true, Contacts: n.closerIf(m.Closer, m.Key)}, nil
	case getProvidersReq:
		n.rt.update(m.From)
		n.mu.Lock()
		provs := n.providers[m.Key]
		n.mu.Unlock()
		return getProvidersResp{
			Providers: provs,
			Contacts:  n.rt.closest(m.Key, n.cfg.K),
		}, nil
	default:
		return nil, fmt.Errorf("dht: unknown message %T", req)
	}
}

// closerIf answers a write that asked for contacts (Closer) with this
// node's K closest to key, as FIND_NODE would.
func (n *Node) closerIf(asked bool, key Key) []Contact {
	if !asked {
		return nil
	}
	return n.rt.closest(key, n.cfg.K)
}

// Bootstrap seeds the routing table with known contacts and performs a
// self-lookup to populate nearby buckets. Returns the lookup cost.
func (n *Node) Bootstrap(seeds []Contact) netsim.Cost {
	for _, c := range seeds {
		if c.Addr != n.self.Addr {
			n.rt.update(c)
		}
	}
	_, cost := n.lookupNodes(n.self.ID)
	return cost
}

// call performs one RPC and maintains the routing table on success or
// failure.
func (n *Node) call(to Contact, req any) (any, netsim.Cost, error) {
	return n.callCtx(context.Background(), to, req)
}

// callCtx is call with a request lifecycle. A call short-circuited by
// cancellation never reached the peer, so — unlike a genuine RPC
// failure — it does NOT mark the contact failed: abandoning a query
// must not poison the routing table.
//
// Transient failures (netsim.Retryable: a dropped message, a shed
// request) get up to cfg.MaxRetries extra attempts, each preceded by a
// simulated exponential backoff with deterministic jitter. The backoff
// is charged as latency on the accumulated cost — waiting is wall-clock
// the caller pays — but adds no bytes or messages (the network already
// charged each failed attempt's wire cost). Structural failures (node
// down, partition, unknown node) fail fast: retrying cannot help until
// the world changes, and only then is the contact marked failed.
func (n *Node) callCtx(ctx context.Context, to Contact, req any) (any, netsim.Cost, error) {
	var total netsim.Cost
	for attempt := 0; ; attempt++ {
		resp, cost, err := n.net.CallCtx(ctx, n.self.Addr, to.Addr, req)
		total = total.Seq(cost)
		if err == nil {
			n.rt.update(to)
			return resp, total, nil
		}
		if errors.Is(err, netsim.ErrCancelled) {
			return nil, total, err
		}
		if !netsim.Retryable(err) || attempt >= n.cfg.MaxRetries {
			n.rt.markFailed(to.ID)
			return nil, total, err
		}
		total = total.Seq(netsim.Cost{Latency: n.retryBackoff(to, attempt)})
	}
}

// retryBackoff returns the simulated wait before retry number attempt:
// exponential base doubling with a deterministic jitter factor in
// [0.75, 1.25) derived by hashing the (caller, target, attempt) triple.
// Pure hashing — no RNG stream is consumed — so retries never perturb
// the per-link draw sequences other calls depend on.
func (n *Node) retryBackoff(to Contact, attempt int) time.Duration {
	base := retryBackoffBase << uint(attempt)
	h := uint64(14695981039346656037) // FNV-64 offset basis
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(string(n.self.Addr))
	mix("\x00")
	mix(string(to.Addr))
	mix(fmt.Sprintf("\x00%d", attempt))
	factor := 0.75 + 0.5*float64(h>>11)/(1<<53)
	return time.Duration(float64(base) * factor)
}

// Ping checks liveness of a contact.
func (n *Node) Ping(to Contact) (netsim.Cost, error) {
	_, cost, err := n.call(to, pingReq{From: n.self})
	return cost, err
}

// Replica is one member of a walk's closest set: the contact, and what
// it answered when the walk asked it for the record. Held and Seq stay
// zero on walks that asked for contacts or providers only.
type Replica struct {
	Contact
	Held bool   // the contact returned a record for the key that passed the read's check
	Seq  uint64 // the sequence it held (meaningful when Held)
}

// Walk is what one iterative lookup toward Key learned: the K closest
// live contacts it queried, nearest first. A walk that ran to
// convergence is the replica set a write to Key lands on, so PutAt and
// ProvideAt accept it in place of walking again; the zero Closest of an
// unconverged walk (cut short, answered locally, or simply Walk{Key: k})
// makes them walk, storing as they go (writeAt).
type Walk struct {
	Key     Key
	Closest []Replica
	// converged: the lookup queried through to the K closest live
	// contacts — the only kind of walk a write may reuse.
	converged bool
}

// Replicas counts the closest contacts that held the record (at any
// sequence) when the walk asked them. The walking node's own copy is
// never counted — maintenance cares about replicas that survive it.
func (w Walk) Replicas() int {
	held := 0
	for _, r := range w.Closest {
		if r.Held {
			held++
		}
	}
	return held
}

// convergedWalk wraps the contacts an iterative lookup returned.
func convergedWalk(key Key, contacts []Contact) Walk {
	w := Walk{Key: key, Closest: make([]Replica, len(contacts)), converged: true}
	for i, c := range contacts {
		w.Closest[i].Contact = c
	}
	return w
}

// walkQuery sends a walk's request to one contact. The simulated RPC runs
// when the walk issues it; the reply is held until it arrives. A false ok
// drops the contact from the walk: it did not answer (no reply), or its
// answer failed the caller's check, whose reply still names contacts.
type walkQuery func(c Contact) (r reply, ok bool, cost netsim.Cost)

// asking is the walk query that sends req to each contact and continues
// from its reply.
func (n *Node) asking(ctx context.Context, req any) walkQuery {
	return func(c Contact) (reply, bool, netsim.Cost) {
		resp, cost, err := n.callCtx(ctx, c, req)
		if err != nil {
			return nil, false, cost
		}
		return resp.(reply), true, cost
	}
}

// walk is iterativeLookup without a request lifecycle, for the write and
// discovery paths that never abandon a lookup.
func (n *Node) walk(target Key, hasAnswer func() bool, query walkQuery, heard func(Contact, reply, time.Duration), progress func(soFar netsim.Cost)) ([]Contact, netsim.Cost) {
	//detlint:ignore errsink iterativeLookup only errors on context cancellation, impossible with context.Background
	contacts, cost, _ := n.iterativeLookup(context.Background(), target, hasAnswer, query, heard, progress)
	return contacts, cost
}

// lookupNodes performs an iterative FIND_NODE toward target and returns
// the converged walk: the k closest live contacts found. Its product is
// the closest set, so it asks each contact the moment it enters the K
// closest the walk knows (iterativeLookup).
func (n *Node) lookupNodes(target Key) (Walk, netsim.Cost) {
	contacts, cost := n.walk(target, nil, n.asking(context.Background(), findNodeReq{From: n.self, Target: target}), nil, nil)
	return convergedWalk(target, contacts), cost
}

// candidate is one shortlist entry of an iterative lookup.
type candidate struct {
	Contact
	dist Key // ID XOR target
	// asked: the RPC was issued. done: its answer arrived and was applied.
	// failed: it arrived as a failure (ok is the outcome, known to the
	// walk only once done).
	asked, done, failed, ok bool
	order                   int32         // issue order: breaks ties between equal arrivals
	at, rtt                 time.Duration // arrival on the walk's clock; the RPC's own latency
	reply                   reply         // held from issue to arrival
}

// shortlist is a lookup's candidates in ascending distance to its target.
// XOR with a fixed target is a bijection, so an equal distance is the
// same contact: the sort order de-duplicates too.
type shortlist []candidate

// search returns the index at which distance d is, or belongs. The top
// word decides nearly every step; Less settles only a tie on it.
func (s shortlist) search(d Key) (int, bool) {
	h := d.hi()
	i := sort.Search(len(s), func(i int) bool { x := s[i].dist.hi(); return x > h || x == h && !s[i].dist.Less(d) })
	return i, i < len(s) && s[i].dist == d
}

// insert adds c at its rank unless listed, reporting whether it did.
// Nearly every contact a reply names is listed already, so it looks c up
// by its distance's top word and its ID first; only a new contact pays
// for the full distance and the insert.
func (s *shortlist) insert(c Contact, target Key) bool {
	h := c.ID.hi() ^ target.hi()
	l := *s
	i := sort.Search(len(l), func(i int) bool { return l[i].dist.hi() >= h })
	for j := i; j < len(l) && l[j].dist.hi() == h; j++ {
		if l[j].ID == c.ID {
			return false
		}
	}
	d := c.ID.XOR(target)
	for i < len(l) && l[i].dist.hi() == h && l[i].dist.Less(d) {
		i++
	}
	*s = slices.Insert(l, i, candidate{Contact: c, dist: d})
	return true
}

// lookup is one iterative walk in progress.
type lookup struct {
	n         *Node
	ctx       context.Context
	target    Key
	hasAnswer func() bool
	query     walkQuery
	heard     func(Contact, reply, time.Duration)
	progress  func(soFar netsim.Cost)

	list   shortlist
	total  netsim.Cost // every RPC issued; Latency is the walk's clock
	issued int32
	live   int // answers applied
	err    error
}

// iterativeLookup is the shared Kademlia lookup loop. query sends a
// contact the walk's request; heard, when set, takes each answer when it
// arrives, so anything the caller decides later queries from changes then
// and not at issue; progress, when set, is told the walk's cost so far
// each time answers have been applied.
//
// A walk has one of two schedules, and hasAnswer picks it. A walk whose
// product is the converged closest set (lookupNodes, Locate, a walked
// write) passes none and runs in arrival order (converge): it applies
// answers as they arrive and asks every contact the moment it is among
// the K closest the walk knows. A walk whose caller consumes its first
// answer (GetCheckedCtx, FindProviders) passes hasAnswer and keeps
// lock-step rounds of alpha (lockstep); before each RPC it asks
// hasAnswer whether the caller has what it walked for, and ends there
// when it has. On a healthy swarm a walk that runs to its end ends on
// the same K closest live contacts either way; only what else it asks,
// and when, differs.
//
// The loop checks ctx before issuing each RPC: once the context is done
// the rest of the walk is abandoned, the cost accumulated so far is
// returned (the partial wave that actually ran), and the error wraps
// netsim.ErrCancelled. Abandoned peers are never marked failed.
func (n *Node) iterativeLookup(ctx context.Context, target Key, hasAnswer func() bool, query walkQuery, heard func(Contact, reply, time.Duration), progress func(soFar netsim.Cost)) ([]Contact, netsim.Cost, error) {
	k := n.cfg.K
	// Room for twice the K closest; a walk that hears of more doubles it.
	l := lookup{n: n, ctx: ctx, target: target, hasAnswer: hasAnswer, query: query, heard: heard, progress: progress, list: make(shortlist, 0, 2*k)}
	for _, c := range n.rt.closest(target, k) {
		l.list.insert(c, target)
	}
	if hasAnswer != nil {
		l.lockstep()
	} else {
		l.converge()
	}
	if l.err != nil {
		return nil, l.total, l.err
	}
	result := make([]Contact, 0, min(k, l.live))
	for i := range l.list {
		if c := &l.list[i]; c.done && !c.failed {
			result = append(result, c.Contact)
			if len(result) == k {
				break
			}
		}
	}
	return result, l.total, nil
}

// cancelled reports (and wraps) a done context. Checked before every RPC
// the walk issues, so an abandoned lookup stops at a call boundary with
// the partial cost it actually paid.
func (l *lookup) cancelled() bool {
	if l.err != nil {
		return true
	}
	if l.ctx == nil {
		return false
	}
	if cerr := l.ctx.Err(); cerr != nil {
		l.err = fmt.Errorf("%w: %w", netsim.ErrCancelled, cerr)
		return true
	}
	return false
}

// issue sends list[i] the walk's query at the walk's clock. Its messages
// count at once; its answer waits for arrive.
func (l *lookup) issue(i int) {
	c := &l.list[i]
	r, ok, cost := l.query(c.Contact)
	c.asked, c.ok, c.reply = true, ok, r
	c.order, c.rtt, c.at = l.issued, cost.Latency, l.total.Latency+cost.Latency
	l.issued++
	l.total.Msgs += cost.Msgs
	l.total.Bytes += cost.Bytes
}

// arrive applies list[i]'s answer: a failure drops the contact, an
// answer goes to heard, and any reply adds the contacts it names.
func (l *lookup) arrive(i int) {
	c := &l.list[i]
	c.done, c.failed = true, !c.ok
	from, r, rtt := c.Contact, c.reply, c.rtt
	c.reply = nil
	if c.ok {
		l.live++
		if r != nil && l.heard != nil {
			l.heard(from, r, rtt)
		}
	}
	if r == nil {
		return
	}
	for _, cc := range r.closer() { // inserting moves entries: c is stale now
		if cc.ID != l.n.self.ID {
			l.list.insert(cc, l.target)
		}
	}
}

// widen adds the rest of the routing table to the shortlist, reporting
// whether it added anyone. Under churn the initial K-sized shortlist can
// die wholesale; before giving up, a walk with fewer than K live answers
// falls back to farther live contacts. Healthy walks never get here with
// untried table entries left, so widening changes nothing when no node
// has failed.
func (l *lookup) widen() bool {
	widened := false
	for _, c := range l.n.rt.closest(l.target, l.n.rt.size()) {
		widened = l.list.insert(c, l.target) || widened
	}
	return widened
}

// best is the distance of the closest contact not known to have failed,
// or orElse when every one has.
func (l *lookup) best(orElse Key) Key {
	for i := range l.list {
		if !l.list[i].failed {
			return l.list[i].dist
		}
	}
	return orElse
}

// converge is the arrival-order schedule. Every step asks each unasked
// contact among the K nearest not known to have failed, then applies the
// earliest answer in flight (equal arrivals in issue order) and moves the
// walk's clock to it. The walk ends once those K nearest have all
// answered: its latency is that moment, and its traffic every message it
// sent, answers still in flight from contacts it has since passed
// included. With fewer than K live contacts known and nothing in flight it
// widens, and ends when widening finds no one new.
func (l *lookup) converge() {
	k := l.n.cfg.K
	for {
		nearest, waiting := 0, false
		for i := range l.list {
			c := &l.list[i]
			if c.failed {
				continue
			}
			if nearest == k {
				break
			}
			nearest++
			if !c.asked {
				if l.cancelled() {
					return
				}
				l.issue(i)
			}
			waiting = waiting || !c.done
		}
		if nearest == k && !waiting {
			return
		}
		next := -1
		for i := range l.list {
			c := &l.list[i]
			if c.asked && !c.done && (next < 0 || c.at < l.list[next].at || c.at == l.list[next].at && c.order < l.list[next].order) {
				next = i
			}
		}
		if next < 0 {
			if l.widen() {
				continue
			}
			return
		}
		l.total.Latency = l.list[next].at
		l.arrive(next)
		if l.progress != nil {
			l.progress(l.total)
		}
	}
}

// lockstep is the first-answer schedule, in rounds: each asks, in
// parallel, up to alpha of the nearest live contacts not yet asked,
// however far down the shortlist, and the next round waits for the
// slowest answer of this one. A round's answers are applied in the order
// it asked, each as its RPC returns, so a caller that has its answer
// ends the walk before the rest of the round is sent. Once fewer than alpha of the K
// closest are left to ask it asks past them too, where a provider census
// still finds records that announcers with another view of the K closest
// left. When a round brings the walk no closer it asks what is left among
// the K closest at once, and stops once nothing is and K live contacts
// have answered (widening first when fewer have).
func (l *lookup) lockstep() {
	k := l.n.cfg.K
	buf := make([]Contact, 0, max(alpha, k))
	// unasked returns up to width contacts not yet asked, nearest first,
	// from among the first reach live entries of the shortlist.
	unasked := func(width, reach int) []Contact {
		buf = buf[:0]
		for i := range l.list {
			c := &l.list[i]
			if c.failed {
				continue
			}
			if reach == 0 {
				break
			}
			reach--
			if !c.asked {
				buf = append(buf, c.Contact)
				if len(buf) == width {
					break
				}
			}
		}
		return buf
	}
	// ask runs one round and moves the clock to its slowest answer. It
	// reports whether the walk goes on: it ends before an RPC once the
	// context is done or the caller has its answer.
	ask := func(round []Contact) bool {
		end, over := l.total.Latency, false
		for _, c := range round {
			if over = l.cancelled() || l.hasAnswer(); over {
				break
			}
			i, _ := l.list.search(c.ID.XOR(l.target))
			l.issue(i)
			end = max(end, l.list[i].at)
			l.arrive(i)
		}
		l.total.Latency = end
		if l.progress != nil {
			l.progress(l.total)
		}
		return !over
	}
	exhausted := func() bool { return l.live >= k || !l.widen() }

	for {
		round := unasked(alpha, len(l.list))
		if len(round) == 0 {
			if exhausted() {
				return
			}
			continue
		}
		prevBest := l.best(Key{})
		if !ask(round) {
			return
		}
		if l.best(prevBest).Less(prevBest) {
			continue
		}
		tail := unasked(k, k)
		if len(tail) == 0 {
			if exhausted() {
				return
			}
			continue
		}
		if !ask(tail) {
			return
		}
	}
}

// writeAt is the one write behind PutAt and ProvideAt: send issues one
// RPC carrying the record to c, asking for c's K closest to the key when
// walking, and reports whether c took it. It returns the contacts of the
// converged closest set that took it, nearest first.
//
// A converged walk gets one wave to its closest set. An unconverged one
// is walked, and the walk carries the record: it sends it, in place of
// FIND_NODE, to each contact it asks, so the write is done when the walk
// converges. It lands on every contact the walk asked — the converged K,
// and any it asked before closer ones displaced them. A reused walk can
// be stale only if a contact died since it ran, so when any RPC of its
// wave fails the key is walked that way, once — a remembered walk never
// under-replicates silently. A lone node (a walk that found nobody) keeps
// the record itself and is its own one replica.
func (n *Node) writeAt(w Walk, keepLocal func(), send func(c Contact, walking bool) (reply, bool, netsim.Cost, error)) ([]Contact, netsim.Cost) {
	var (
		total   netsim.Cost
		taken   []Contact
		reached = len(w.Closest)
		walk    = !w.converged
	)
	if w.converged {
		for _, r := range w.Closest {
			_, ok, cost, err := send(r.Contact, false)
			total = total.Par(cost)
			walk = walk || err != nil
			if ok {
				taken = append(taken, r.Contact)
			}
		}
	}
	if walk {
		var refused []Key
		closest, cost := n.walk(w.Key, nil, func(c Contact) (reply, bool, netsim.Cost) {
			r, ok, cost, err := send(c, true)
			if err != nil {
				return nil, false, cost
			}
			if !ok {
				refused = append(refused, c.ID)
			}
			return r, true, cost
		}, nil, nil)
		total = total.Seq(cost)
		reached = len(closest)
		taken = slices.DeleteFunc(closest, func(c Contact) bool { return slices.Contains(refused, c.ID) })
	}
	if reached == 0 {
		keepLocal()
		return []Contact{n.self}, total
	}
	return taken, total
}

// Put stores a versioned value on the k closest nodes to key: PutAt on
// no walk, so the STORE rides the walk toward key and the write costs
// that walk alone (writeAt).
func (n *Node) Put(key Key, value []byte, seq uint64) (int, netsim.Cost, error) {
	return n.PutAt(Walk{Key: key}, value, seq)
}

// PutAt stores a versioned value on the closest set of a walk toward
// w.Key the caller already ran — the Locate that was the read half of a
// read-modify-write, or maintenance's health check — issuing only the
// STORE wave, or walks storing as it goes when w never converged; see
// writeAt, also for the staleness fallback. The writer also keeps a local replica (when it
// already holds an older version, or when the swarm is empty) so its own
// later reads can never regress. A replica holding a
// newer sequence refuses the record: the count returned is replicas that
// ACCEPTED it, and none accepting is an error.
func (n *Node) PutAt(w Walk, value []byte, seq uint64) (int, netsim.Cost, error) {
	key := w.Key
	n.mu.Lock()
	if cur, ok := n.values[key]; ok && seq >= cur.seq {
		n.values[key] = storedValue{value: value, seq: seq}
	}
	n.mu.Unlock()

	accepted, cost := n.writeAt(w, func() {
		// A lone node stores locally so single-node setups still work.
		n.mu.Lock()
		if cur, ok := n.values[key]; !ok || seq >= cur.seq {
			n.values[key] = storedValue{value: value, seq: seq}
		}
		n.mu.Unlock()
	}, func(c Contact, walking bool) (reply, bool, netsim.Cost, error) {
		resp, cost, err := n.call(c, storeReq{From: n.self, Key: key, Value: value, Seq: seq, Closer: walking})
		if err != nil {
			return nil, false, cost, err
		}
		return resp.(reply), resp.(storeResp).OK, cost, nil
	})
	if len(accepted) == 0 {
		return 0, cost, fmt.Errorf("dht: no replica accepted %s at seq %d", key.Short(), seq)
	}
	return len(accepted), cost, nil
}

// Located is the outcome of the locating read: the winning record (when
// any replica or the local copy held one) and the converged walk that
// found it — the closest set, with the sequence each member held.
type Located struct {
	Walk
	Value []byte
	Seq   uint64
	// Holder is a replica worth asking first next time: the remote
	// contact that returned the winning record with the lowest RPC
	// latency (the nearest current holder). The zero Contact means no
	// remote replica returned it — only this node's own copy did.
	Holder Contact
}

// Locate is the quorum read of a versioned record, via iterative
// FIND_VALUE. Because records are mutable (pointers like index shard
// lists), the lookup does NOT stop at the first replica: it queries
// through to the k closest nodes, asking each the moment the walk learns
// of it, and takes the highest sequence among the answers as they arrive
// — a read that tolerates stale replicas. The local replica (if any) participates as one more vote.
// What the walk learned on the way is returned with the record, so a
// caller that goes on to write the key (PutAt) or to judge its
// replication (Walk.Replicas) does not walk again. With ErrNotFound the
// walk is still valid: the first write of a key reuses it like any
// other.
//
// valid, when set, accepts exactly the copies that are the record (a
// content hash check, as GetCheckedCtx's). A copy it rejects, the local
// one included, is not held and never wins; the contact that sent it
// keeps its place in the closest set, so a write onto the walk
// overwrites it. Versioned records pass nil.
//
// Once ctx is done, the remaining lookup rounds are abandoned and the
// error wraps netsim.ErrCancelled. A quorum read cut short mid-lookup
// fails even when some replica already answered — a partial quorum is
// not a read — and the returned cost is the partial wave that actually
// ran.
func (n *Node) Locate(ctx context.Context, key Key, valid func([]byte) bool) (Located, netsim.Cost, error) {
	var (
		loc       Located
		anyValue  bool
		holderLat time.Duration
	)
	n.mu.Lock()
	sv, ok := n.values[key]
	n.mu.Unlock()
	if ok && (valid == nil || valid(sv.value)) {
		loc.Value, loc.Seq, anyValue = sv.value, sv.seq, true
	}

	answers := make(map[Key]Replica)
	contacts, cost, err := n.iterativeLookup(ctx, key, nil, n.asking(ctx, findValueReq{From: n.self, Key: key}), func(c Contact, rp reply, rtt time.Duration) {
		r := rp.(findValueResp)
		held := r.Found && (valid == nil || valid(r.Value))
		answers[c.ID] = Replica{Contact: c, Held: held, Seq: r.Seq}
		if !held {
			return
		}
		switch {
		case !anyValue || r.Seq > loc.Seq:
			loc.Value, loc.Seq, anyValue = r.Value, r.Seq, true
			loc.Holder, holderLat = c, rtt
		case r.Seq == loc.Seq && bytes.Equal(r.Value, loc.Value) &&
			(loc.Holder == Contact{} || rtt < holderLat):
			loc.Holder, holderLat = c, rtt
		}
	}, nil)
	if err != nil {
		return Located{}, cost, err
	}
	loc.Walk = convergedWalk(key, contacts)
	for i, r := range loc.Closest {
		loc.Closest[i] = answers[r.ID]
	}
	if !anyValue {
		return loc, cost, ErrNotFound
	}
	return loc, cost, nil
}

// GetCtx retrieves the highest-sequence value for key: Locate without
// the walk.
func (n *Node) GetCtx(ctx context.Context, key Key) ([]byte, uint64, netsim.Cost, error) {
	loc, cost, err := n.Locate(ctx, key, nil)
	if err != nil {
		return nil, 0, cost, err
	}
	return loc.Value, loc.Seq, cost, nil
}

// GetFromCtx asks one known replica holder for key: a single FIND_VALUE
// RPC, no lookup and no quorum. ErrNotFound means the holder answered
// but has no record. The caller must be able to tell a current record
// from a stale one by itself — a lone replica cannot — and falls back
// to GetCtx when it cannot.
func (n *Node) GetFromCtx(ctx context.Context, holder Contact, key Key) ([]byte, uint64, netsim.Cost, error) {
	resp, cost, err := n.callCtx(ctx, holder, findValueReq{From: n.self, Key: key})
	if err != nil {
		return nil, 0, cost, err
	}
	r := resp.(findValueResp)
	if !r.Found {
		return nil, 0, cost, ErrNotFound
	}
	return r.Value, r.Seq, cost, nil
}

// Local reads this node's own replica of key: no RPC, no lookup, no
// quorum. Like GetFromCtx's, the record may be stale, and the caller
// must be able to tell a current one by itself.
func (n *Node) Local(key Key) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sv, ok := n.values[key]
	return sv.value, ok
}

// GetImmutableCtx retrieves a value that can never change
// (content-addressed records): GetCheckedCtx for a caller that checks the
// content hash itself. Use GetCtx for versioned (mutable) records.
func (n *Node) GetImmutableCtx(ctx context.Context, key Key) ([]byte, netsim.Cost, error) {
	return n.GetCheckedCtx(ctx, key, nil)
}

// GetCheckedCtx retrieves a self-certifying value: one that valid, when
// set, accepts exactly when it is the value stored under key (a content
// hash check). The lookup ends at the first replica found whose value
// valid accepts. Its product is that first answer, not the closest
// set, so it asks alpha contacts a round. A value valid rejects is a miss
// at the contact that sent it: the walk drops that contact as it drops
// one that failed, and goes on to the next holder. The node's own copy
// is checked the same way before the walk. Once ctx is done the remaining
// lookup rounds are abandoned with the partial cost. A replica found
// before the cancel still wins — the bytes were already on the wire, and
// valid vouches for them.
func (n *Node) GetCheckedCtx(ctx context.Context, key Key, valid func([]byte) bool) ([]byte, netsim.Cost, error) {
	if val, ok := n.Local(key); ok && (valid == nil || valid(val)) {
		return val, netsim.Cost{}, nil
	}

	var (
		val   []byte
		found bool
	)
	_, cost, err := n.iterativeLookup(ctx, key, func() bool { return found }, func(c Contact) (reply, bool, netsim.Cost) {
		resp, cc, err := n.callCtx(ctx, c, findValueReq{From: n.self, Key: key})
		if err != nil {
			return nil, false, cc
		}
		r := resp.(findValueResp)
		if !r.Found {
			return resp.(reply), true, cc
		}
		if valid != nil && !valid(r.Value) {
			return resp.(reply), false, cc
		}
		val, found = r.Value, true
		return nil, true, cc
	}, nil, nil)
	if found {
		return val, cost, nil
	}
	if err != nil {
		return nil, cost, err
	}
	return nil, cost, ErrNotFound
}

// Provide announces this node as a provider for key on the k closest
// nodes: ProvideAt on no walk, so the ADD_PROVIDER rides the walk toward
// key and the announce costs that walk alone (writeAt).
func (n *Node) Provide(key Key) ([]Contact, netsim.Cost, error) {
	return n.ProvideAt(Walk{Key: key})
}

// ProvideAt announces this node as a provider for w.Key on the closest
// set of a walk the caller already ran (FindProviders, when it
// converged), issuing only the ADD_PROVIDER wave, or walks announcing as
// it goes when w never converged (Provide); see writeAt, also for the staleness
// fallback. It returns the converged closest set that took the record,
// nearest first: provider records never expire, so the
// record stays findable for as long as they answer, and a caller that
// remembers them knows when it must announce again.
func (n *Node) ProvideAt(w Walk) ([]Contact, netsim.Cost, error) {
	key := w.Key
	holders, cost := n.writeAt(w, func() {
		n.mu.Lock()
		n.providers[key] = withProvider(n.providers[key], n.self)
		n.mu.Unlock()
	}, func(c Contact, walking bool) (reply, bool, netsim.Cost, error) {
		resp, cost, err := n.call(c, addProviderReq{From: n.self, Key: key, Provider: n.self, Closer: walking})
		if err != nil {
			return nil, false, cost, err
		}
		return resp.(reply), true, cost, nil
	})
	if len(holders) == 0 {
		return nil, cost, fmt.Errorf("dht: provider announce failed for %s", key.Short())
	}
	return holders, cost, nil
}

// Providers is what provider discovery learned about a key.
type Providers struct {
	// All is every provider the walk heard of (at most limit, in address
	// order).
	All []Contact
	// First is the providers known once the first answer naming any was
	// applied, at the end of its lock-step round, or before the walk, when
	// local records already named some, and FirstCost is what the walk
	// had cost by then. Retrieval can start there: the rest of the walk
	// converges on the K closest for the sake of whoever announces on it.
	First     []Contact
	FirstCost netsim.Cost
	// Walk is the lookup itself, reusable (a fetcher announcing itself for
	// the same key hands it to ProvideAt) only when it ran to convergence:
	// a lookup answered from local provider records, or cut short once
	// limit providers were known, returns an unconverged walk and the
	// announce walks for itself.
	Walk Walk
}

// FindProviders discovers providers for key with one iterative lookup,
// run to convergence unless limit (when positive) providers are known
// first, and returns what it learned with the whole walk's cost. A fetch
// starts from Providers.First, so the walk keeps the first-answer
// schedule (iterativeLookup): that answer arrives as early, and as
// cheaply, as it can.
func (n *Node) FindProviders(key Key, limit int) (Providers, netsim.Cost, error) {
	found := Providers{Walk: Walk{Key: key}}
	// Local provider records answer immediately. seen may be this node's
	// own set (withProvider never writes it), so known hands out copies.
	n.mu.Lock()
	seen := n.providers[key]
	n.mu.Unlock()
	known := func() []Contact {
		if limit > 0 && len(seen) > limit {
			return slices.Clone(seen[:limit])
		}
		return slices.Clone(seen)
	}
	enough := func() bool { return limit > 0 && len(seen) >= limit }
	found.First = known()
	if enough() {
		found.All = found.First
		return found, netsim.Cost{}, nil
	}

	cutShort := false
	contacts, cost := n.walk(key, func() bool {
		cutShort = enough()
		return cutShort
	}, n.asking(context.Background(), getProvidersReq{From: n.self, Key: key}), func(_ Contact, r reply, _ time.Duration) {
		for _, p := range r.(getProvidersResp).Providers {
			seen = withProvider(seen, p)
		}
	}, func(soFar netsim.Cost) {
		if len(found.First) == 0 && len(seen) > 0 {
			found.First, found.FirstCost = known(), soFar
		}
	})
	if !cutShort {
		found.Walk = convergedWalk(key, contacts)
	}
	if len(seen) == 0 {
		return found, cost, ErrNotFound
	}
	found.All = known()
	return found, cost, nil
}

// RefreshBuckets performs lookups toward deterministic pseudo-random
// targets, populating distant k-buckets — the periodic bucket refresh of
// standard Kademlia. Large swarms need it so that writer and reader
// lookups converge on the same closest nodes; without it, sparse routing
// tables can make a reader terminate before discovering a replica
// holder.
func (n *Node) RefreshBuckets(rounds int) netsim.Cost {
	var total netsim.Cost
	for i := 0; i < rounds; i++ {
		target := KeyOfString(fmt.Sprintf("bucket-refresh:%s:%d", n.self.Addr, i))
		_, cost := n.lookupNodes(target)
		total = total.Seq(cost)
	}
	return total
}

// Digest hashes the node's simulated state: the routing table in bucket
// order with failed flags, every value (key, sequence, SHA-256 of the
// bytes) and every provider set, keys and providers sorted. Two runs
// that leave equal digests on every node left the same DHT behind.
func (n *Node) Digest() [sha256.Size]byte {
	h := sha256.New()
	n.rt.writeTo(h)
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range slices.SortedFunc(maps.Keys(n.values), Key.Cmp) {
		v := n.values[k]
		fmt.Fprintf(h, "v %s %d %x\n", k, v.seq, sha256.Sum256(v.value))
	}
	for _, k := range slices.SortedFunc(maps.Keys(n.providers), Key.Cmp) {
		addrs := make([]netsim.NodeID, len(n.providers[k]))
		for i, c := range n.providers[k] {
			addrs[i] = c.Addr
		}
		fmt.Fprintf(h, "p %s %v\n", k, addrs)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// withProvider returns set, in address order, with c in it. It never
// writes to set's array, so a set already handed out stays as it was. A
// node's ID is the hash of its address, so a record for an address the
// set holds is the one it holds, and set comes back unchanged.
func withProvider(set []Contact, c Contact) []Contact {
	i, found := slices.BinarySearchFunc(set, c.Addr, func(e Contact, a netsim.NodeID) int { return cmp.Compare(e.Addr, a) })
	if found {
		return set
	}
	return slices.Insert(set[:len(set):len(set)], i, c)
}

// StoreLocal injects a value directly into this node's local store,
// bypassing the network. Used to model malicious replicas in E6/E11.
func (n *Node) StoreLocal(key Key, value []byte, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.values[key] = storedValue{value: value, seq: seq}
}
