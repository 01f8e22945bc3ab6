package dht

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Errors returned by DHT operations.
var (
	ErrNotFound   = errors.New("dht: value not found")
	ErrNoContacts = errors.New("dht: routing table is empty")
)

// Network-wide Kademlia constants: every node runs the same values.
const (
	// alpha is the round width of GetImmutableCtx and of provider discovery.
	// A cold immutable read and discovery for a fetch consume the first
	// answer; discovery for a fetch already told whom to ask must not send
	// more than that. A walk that writes or quorum-reads asks the K
	// closest it knows at once instead (iterativeLookup).
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

// K returns the replication factor: how many of the closest nodes a
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
		return storeResp{OK: accepted}, nil
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
		return addProviderResp{OK: true}, nil
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
	Held bool   // the contact returned a record for the key
	Seq  uint64 // the sequence it held (meaningful when Held)
}

// Walk is what one iterative lookup toward Key learned: the K closest
// live contacts it queried, nearest first. A walk that ran to
// convergence is the replica set a write to Key lands on, so PutAt and
// ProvideAt accept it in place of walking again; the zero Closest of an
// unconverged walk (cut short, answered locally, or simply Walk{Key: k})
// makes them walk first.
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

// walk is iterativeLookup without a request lifecycle, for the write and
// discovery paths that never abandon a lookup.
func (n *Node) walk(target Key, width int, firstAnswer bool, query func(Contact) ([]Contact, bool, netsim.Cost), afterRound func(soFar netsim.Cost)) ([]Contact, netsim.Cost) {
	//detlint:ignore errsink iterativeLookup only errors on context cancellation, impossible with context.Background
	contacts, cost, _ := n.iterativeLookup(context.Background(), target, width, firstAnswer, query, afterRound)
	return contacts, cost
}

// lookupNodes performs an iterative FIND_NODE toward target and returns
// the converged walk: the k closest live contacts found. Queries within
// a round are accounted as parallel; rounds are sequential. Its product
// is the closest set, so every round asks all of the K closest it knows.
func (n *Node) lookupNodes(target Key) (Walk, netsim.Cost) {
	contacts, cost := n.walk(target, n.cfg.K, false, func(c Contact) ([]Contact, bool, netsim.Cost) {
		resp, cost, err := n.call(c, findNodeReq{From: n.self, Target: target})
		if err != nil {
			return nil, false, cost
		}
		return resp.(findNodeResp).Contacts, true, cost
	}, nil)
	return convergedWalk(target, contacts), cost
}

// candidate is one shortlist entry of an iterative lookup.
type candidate struct {
	Contact
	dist            Key // ID XOR target
	queried, failed bool
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
func (s *shortlist) insert(c Contact, target Key) bool {
	d := c.ID.XOR(target)
	i, found := s.search(d)
	if !found {
		*s = slices.Insert(*s, i, candidate{Contact: c, dist: d})
	}
	return !found
}

// iterativeLookup is the shared Kademlia lookup loop. query returns the
// closer contacts a peer reported and whether the peer responded.
//
// Each round asks, in parallel, up to width of the nearest live contacts
// not yet asked. A walk whose product is the converged closest set looks
// no further than the K closest it knows: at width K (lookupNodes,
// Locate) a walker whose table already holds the replica set converges
// in one round trip; at width alpha (FindProvidersConverged) it asks no
// wider than a first-answer walk, and stops once the K closest have
// answered. A walk whose caller consumes its first answer (firstAnswer:
// GetImmutableCtx, FindProviders) keeps the classic schedule — alpha a
// round, nearest first however far down the shortlist — so once fewer
// than alpha of the K closest are left to ask it asks past them too,
// where a provider census still finds records that announcers with
// another view of the K closest left. On a healthy swarm every schedule
// ends on the same K closest live contacts; only what else it asks, and
// when, differs.
//
// The loop checks ctx before issuing each RPC: once the context is done
// the remaining queries of the round — and every later round — are
// abandoned, the cost accumulated so far is returned (the partial wave
// that actually ran), and the error wraps netsim.ErrCancelled. Abandoned
// peers are never marked failed.
//
// afterRound, when set, is told the cost accumulated so far each time a
// round of parallel queries has been folded in: the lookup's clock at the
// moment that round's answers are all in hand.
func (n *Node) iterativeLookup(ctx context.Context, target Key, width int, firstAnswer bool, query func(Contact) ([]Contact, bool, netsim.Cost), afterRound func(soFar netsim.Cost)) ([]Contact, netsim.Cost, error) {
	k := n.cfg.K
	// Room for twice the K closest; a walk that hears of more doubles it,
	// an alpha-wide one at most once a round.
	list := make(shortlist, 0, 2*k)
	for _, c := range n.rt.closest(target, k) {
		list.insert(c, target)
	}
	buf := make([]Contact, 0, max(width, k)) // unasked's answer
	live := 0                                // contacts queried successfully so far
	var total netsim.Cost
	var lookupErr error

	// cancelled reports (and wraps) a done context. Checked before every
	// RPC the loop issues, so an abandoned lookup stops at a call
	// boundary with the partial cost it actually paid.
	cancelled := func() bool {
		if lookupErr != nil {
			return true
		}
		if ctx == nil {
			return false
		}
		if cerr := ctx.Err(); cerr != nil {
			lookupErr = fmt.Errorf("%w: %w", netsim.ErrCancelled, cerr)
			return true
		}
		return false
	}

	// unasked returns up to width contacts not yet asked, nearest first,
	// from among the first reach live entries of the shortlist.
	unasked := func(width, reach int) []Contact {
		buf = buf[:0]
		for i := range list {
			c := &list[i]
			if c.failed {
				continue
			}
			if reach == 0 {
				break
			}
			reach--
			if !c.queried {
				buf = append(buf, c.Contact)
				if len(buf) == width {
					break
				}
			}
		}
		return buf
	}

	// ask queries one round in parallel and folds it into the lookup's
	// clock.
	ask := func(round []Contact) {
		var roundCost netsim.Cost
		for _, c := range round {
			if cancelled() {
				break
			}
			// The shortlist only changes below, after i is last used.
			i, _ := list.search(c.ID.XOR(target))
			list[i].queried = true
			closer, ok, cost := query(c)
			roundCost = roundCost.Par(cost)
			if !ok {
				list[i].failed = true
				continue
			}
			live++
			for _, cc := range closer {
				if cc.ID != n.self.ID {
					list.insert(cc, target)
				}
			}
		}
		total = total.Seq(roundCost)
		if afterRound != nil {
			afterRound(total)
		}
	}

	// exhausted is the one stopping rule, at both of the loop's exits,
	// where nothing is left to ask among the closest: stop once K live
	// contacts have answered. Under churn the initial K-sized shortlist can
	// die wholesale; before giving up, widen it from the rest of the
	// routing table so the lookup falls back to farther live contacts.
	// Healthy lookups never get here with fewer than K live answers and
	// untried table entries left, so the widening changes nothing when no
	// node has failed.
	exhausted := func() bool {
		if live >= k {
			return true
		}
		widened := false
		for _, c := range n.rt.closest(target, n.rt.size()) {
			widened = list.insert(c, target) || widened
		}
		return !widened
	}

	// best is the distance of the closest contact not known to have
	// failed, or orElse when every one has. A round is drawn from those
	// contacts, so before it there is always one.
	best := func(orElse Key) Key {
		for i := range list {
			if !list[i].failed {
				return list[i].dist
			}
		}
		return orElse
	}

	for {
		reach := k
		if firstAnswer {
			reach = len(list)
		}
		round := unasked(width, reach)
		if len(round) == 0 {
			if exhausted() {
				break
			}
			continue
		}
		prevBest := best(Key{})
		ask(round)
		if lookupErr != nil {
			return nil, total, lookupErr
		}
		if best(prevBest).Less(prevBest) {
			continue
		}
		// Termination: when a round brings the walk no closer, ask what is
		// left among the K closest at once (for a K-wide walk, its next
		// round), and stop once nothing is.
		tail := unasked(k, k)
		if len(tail) == 0 {
			if exhausted() {
				break
			}
			continue
		}
		ask(tail)
		if lookupErr != nil {
			return nil, total, lookupErr
		}
	}

	result := make([]Contact, 0, min(k, live))
	for i := range list {
		if c := &list[i]; c.queried && !c.failed {
			result = append(result, c.Contact)
			if len(result) == k {
				break
			}
		}
	}
	return result, total, nil
}

// writeAt is the one write wave behind PutAt and ProvideAt: send issues
// one RPC to a member of the walk's closest set and reports whether the
// replica took the record. It returns the contacts that took it. An
// unconverged walk is walked first. A reused one can be stale only if a
// contact died since its walk ran, so when any RPC of the wave fails the
// key is walked again, once, and the wave re-sent — a remembered walk
// never under-replicates silently. A lone node (a converged walk that
// found nobody) keeps the record itself and is its own one replica.
func (n *Node) writeAt(w Walk, keepLocal func(), send func(Contact) (bool, netsim.Cost, error)) ([]Contact, netsim.Cost) {
	var total netsim.Cost
	for {
		reused := w.converged
		if !reused {
			var cost netsim.Cost
			w, cost = n.lookupNodes(w.Key)
			total = total.Seq(cost)
		}
		if len(w.Closest) == 0 {
			keepLocal()
			return []Contact{n.self}, total
		}
		var taken []Contact
		failed := false
		var wave netsim.Cost
		for _, r := range w.Closest {
			ok, cost, err := send(r.Contact)
			wave = wave.Par(cost)
			if err != nil {
				failed = true
			} else if ok {
				taken = append(taken, r.Contact)
			}
		}
		total = total.Seq(wave)
		if !reused || !failed {
			return taken, total
		}
		w = Walk{Key: w.Key}
	}
}

// Put stores a versioned value on the k closest nodes to key: one walk,
// then PutAt on what it found.
func (n *Node) Put(key Key, value []byte, seq uint64) (int, netsim.Cost, error) {
	return n.PutAt(Walk{Key: key}, value, seq)
}

// PutAt stores a versioned value on the closest set of a walk toward
// w.Key the caller already ran — the read half of a read-modify-write
// (Locate), or a replication probe — issuing only the STORE wave; see
// writeAt for the staleness fallback. The writer also keeps a local
// replica (when it already holds an older version, or when the swarm is
// empty) so its own later reads can never regress. A replica holding a
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
	}, func(c Contact) (bool, netsim.Cost, error) {
		resp, cost, err := n.call(c, storeReq{From: n.self, Key: key, Value: value, Seq: seq})
		if err != nil {
			return false, cost, err
		}
		return resp.(storeResp).OK, cost, nil
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
// through to the k closest nodes, asking all of those it knows at once,
// and takes the highest sequence seen — a read that tolerates stale
// replicas. The local replica (if any) participates as one more vote.
// What the walk learned on the way is returned with the record, so a
// caller that goes on to write the key (PutAt) or to judge its
// replication (Walk.Replicas) does not walk again. With ErrNotFound the
// walk is still valid: the first write of a key reuses it like any
// other.
//
// Once ctx is done, the remaining lookup rounds are abandoned and the
// error wraps netsim.ErrCancelled. A quorum read cut short mid-lookup
// fails even when some replica already answered — a partial quorum is
// not a read — and the returned cost is the partial wave that actually
// ran.
func (n *Node) Locate(ctx context.Context, key Key) (Located, netsim.Cost, error) {
	var (
		loc       Located
		anyValue  bool
		holderLat time.Duration
	)
	n.mu.Lock()
	if sv, ok := n.values[key]; ok {
		loc.Value, loc.Seq, anyValue = sv.value, sv.seq, true
	}
	n.mu.Unlock()

	answers := make(map[Key]Replica)
	contacts, cost, err := n.iterativeLookup(ctx, key, n.cfg.K, false, func(c Contact) ([]Contact, bool, netsim.Cost) {
		resp, cc, err := n.callCtx(ctx, c, findValueReq{From: n.self, Key: key})
		if err != nil {
			return nil, false, cc
		}
		r := resp.(findValueResp)
		answers[c.ID] = Replica{Contact: c, Held: r.Found, Seq: r.Seq}
		if r.Found {
			switch {
			case !anyValue || r.Seq > loc.Seq:
				loc.Value, loc.Seq, anyValue = r.Value, r.Seq, true
				loc.Holder, holderLat = c, cc.Latency
			case r.Seq == loc.Seq && bytes.Equal(r.Value, loc.Value) &&
				(loc.Holder == Contact{} || cc.Latency < holderLat):
				loc.Holder, holderLat = c, cc.Latency
			}
		}
		// A replica holder still reports closer contacts so the lookup
		// can keep converging on the k closest.
		return r.Contacts, true, cc
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
	loc, cost, err := n.Locate(ctx, key)
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
// (content-addressed records): the lookup short-circuits on the first
// replica found, which is safe because the caller verifies the content
// hash. Its product is that first answer, not the closest set, so it asks
// alpha contacts a round. Use GetCtx for versioned (mutable) records.
// Once ctx is done the remaining lookup rounds are abandoned with the
// partial cost. A replica found before the cancel still wins — the bytes
// were already on the wire, and the caller's hash check vouches for them.
func (n *Node) GetImmutableCtx(ctx context.Context, key Key) ([]byte, netsim.Cost, error) {
	if val, ok := n.Local(key); ok {
		return val, netsim.Cost{}, nil
	}

	var (
		val   []byte
		found bool
	)
	_, cost, err := n.iterativeLookup(ctx, key, alpha, true, func(c Contact) ([]Contact, bool, netsim.Cost) {
		if found {
			return nil, true, netsim.Cost{}
		}
		resp, cc, err := n.callCtx(ctx, c, findValueReq{From: n.self, Key: key})
		if err != nil {
			return nil, false, cc
		}
		r := resp.(findValueResp)
		if r.Found {
			val, found = r.Value, true
			return nil, true, cc
		}
		return r.Contacts, true, cc
	}, nil)
	if found {
		return val, cost, nil
	}
	if err != nil {
		return nil, cost, err
	}
	return nil, cost, ErrNotFound
}

// Provide announces this node as a provider for key on the k closest
// nodes: one walk, then ProvideAt on what it found.
func (n *Node) Provide(key Key) ([]Contact, netsim.Cost, error) {
	return n.ProvideAt(Walk{Key: key})
}

// ProvideAt announces this node as a provider for w.Key on the closest
// set of a walk the caller already ran (FindProviders, when it
// converged), issuing only the ADD_PROVIDER wave; see writeAt for the
// staleness fallback. It returns the contacts that took the record, in
// the walk's nearest-first order: provider records never expire, so the
// record stays findable for as long as they answer, and a caller that
// remembers them knows when it must announce again.
func (n *Node) ProvideAt(w Walk) ([]Contact, netsim.Cost, error) {
	key := w.Key
	holders, cost := n.writeAt(w, func() {
		n.mu.Lock()
		n.providers[key] = withProvider(n.providers[key], n.self)
		n.mu.Unlock()
	}, func(c Contact) (bool, netsim.Cost, error) {
		_, cost, err := n.call(c, addProviderReq{From: n.self, Key: key, Provider: n.self})
		return err == nil, cost, err
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
	// First is the providers known at the end of the first lookup round
	// in which a queried contact named any — or before the walk, when
	// local records already named some — and FirstCost is what the walk
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
// run to convergence, and returns what it learned with the whole walk's
// cost. A fetch starts from Providers.First, so the walk keeps the
// first-answer schedule (iterativeLookup): that answer arrives as early,
// and as cheaply, as it can.
func (n *Node) FindProviders(key Key, limit int) (Providers, netsim.Cost, error) {
	return n.findProviders(key, limit, true)
}

// FindProvidersConverged is FindProviders for a caller that never starts
// from Providers.First: a fetch already told whom to ask, which needs the
// walk only to announce on once it has converged, and the provider list
// only for a fallback that starts after that. Its rounds stay alpha-wide
// but never look past the K closest the walk knows, so it converges as
// soon as those have answered and skips the queries FindProviders spends
// past them.
func (n *Node) FindProvidersConverged(key Key, limit int) (Providers, netsim.Cost, error) {
	return n.findProviders(key, limit, false)
}

func (n *Node) findProviders(key Key, limit int, firstAnswer bool) (Providers, netsim.Cost, error) {
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
	found.First = known()
	if limit > 0 && len(seen) >= limit {
		found.All = found.First
		return found, netsim.Cost{}, nil
	}
	enough := func() bool { return limit > 0 && len(seen) >= limit }

	cutShort := false
	contacts, cost := n.walk(key, alpha, firstAnswer, func(c Contact) ([]Contact, bool, netsim.Cost) {
		if enough() {
			cutShort = true
			return nil, true, netsim.Cost{}
		}
		resp, cc, err := n.call(c, getProvidersReq{From: n.self, Key: key})
		if err != nil {
			return nil, false, cc
		}
		r := resp.(getProvidersResp)
		for _, p := range r.Providers {
			seen = withProvider(seen, p)
		}
		return r.Contacts, true, cc
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

// Refresh re-replicates every locally stored value to the current k
// closest nodes; provider records are their providers' to re-announce
// (store.Peer.Reprovide). Experiments and the maintenance loop call this
// after churn. Keys are republished in sorted order so the network
// traffic (and its RNG draws) is identical across runs.
func (n *Node) Refresh() netsim.Cost {
	n.mu.Lock()
	keys := sortedKeys(n.values)
	vals := make([]storedValue, len(keys))
	for i, k := range keys {
		vals[i] = n.values[k]
	}
	n.mu.Unlock()
	var total netsim.Cost
	for i, k := range keys {
		v := vals[i]
		//detlint:ignore errsink best-effort republish; a failed Put leaves the record for the next Refresh round
		_, cost, _ := n.Put(k, v.value, v.seq)
		total = total.Seq(cost)
	}
	return total
}

// LocalValues returns the number of values held locally.
func (n *Node) LocalValues() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.values)
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
	for _, k := range sortedKeys(n.values) {
		v := n.values[k]
		fmt.Fprintf(h, "v %s %d %x\n", k, v.seq, sha256.Sum256(v.value))
	}
	for _, k := range sortedKeys(n.providers) {
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

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[Key]V) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
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
