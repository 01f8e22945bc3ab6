package dht

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

// lookupState tracks per-contact progress in iterativeLookupReference.
type lookupState struct {
	queried bool
	failed  bool
}

// never is the first-answer walk's answer check for a caller that takes
// every answer the walk brings: the walk runs to its end.
func never() bool { return false }

// refQuery is a reference walk's query: the contacts a peer named and
// whether it answered.
type refQuery func(Contact) ([]Contact, bool, netsim.Cost)

// iterativeLookupReference is the lock-step iterativeLookup as it was
// when the shortlist was a contact slice re-sorted after every round, with
// each contact's progress in a map beside it. Every walk ran this
// schedule before converging walks went to arrival order; first-answer
// walks still do.
func iterativeLookupReference(n *Node, ctx context.Context, target Key, width int, firstAnswer bool, query refQuery, afterRound func(soFar netsim.Cost)) ([]Contact, netsim.Cost, error) {
	k := n.cfg.K
	shortlist := n.rt.closest(target, k)
	states := make(map[Key]*lookupState, len(shortlist))
	for _, c := range shortlist {
		states[c.ID] = &lookupState{}
	}
	var total netsim.Cost
	var lookupErr error

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

	insert := func(c Contact) {
		if c.ID == n.self.ID {
			return
		}
		if _, ok := states[c.ID]; ok {
			return
		}
		states[c.ID] = &lookupState{}
		shortlist = append(shortlist, c)
	}

	sortShortlist := func() {
		sort.Slice(shortlist, func(i, j int) bool {
			return DistanceLess(target, shortlist[i].ID, shortlist[j].ID)
		})
	}

	unasked := func(width, reach int) []Contact {
		var out []Contact
		for _, c := range shortlist {
			st := states[c.ID]
			if st.failed {
				continue
			}
			if reach == 0 {
				break
			}
			reach--
			if !st.queried {
				out = append(out, c)
				if len(out) == width {
					break
				}
			}
		}
		return out
	}

	ask := func(round []Contact) {
		var roundCost netsim.Cost
		for _, c := range round {
			if cancelled() {
				break
			}
			st := states[c.ID]
			st.queried = true
			closer, ok, cost := query(c)
			roundCost = roundCost.Par(cost)
			if !ok {
				st.failed = true
				continue
			}
			for _, cc := range closer {
				insert(cc)
			}
		}
		total = total.Seq(roundCost)
		if afterRound != nil {
			afterRound(total)
		}
	}

	exhausted := func() bool {
		return countLiveReference(states) >= k || !widenReference(n.rt, target, states, &shortlist)
	}

	for {
		sortShortlist()
		reach := k
		if firstAnswer {
			reach = len(shortlist)
		}
		round := unasked(width, reach)
		if len(round) == 0 {
			if exhausted() {
				break
			}
			continue
		}
		prevBest := bestDistanceReference(target, shortlist, states)
		ask(round)
		if lookupErr != nil {
			return nil, total, lookupErr
		}
		sortShortlist()
		if bestDistanceReference(target, shortlist, states).Less(prevBest) {
			continue
		}
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

	sortShortlist()
	var result []Contact
	for _, c := range shortlist {
		st := states[c.ID]
		if st.failed || !st.queried {
			continue
		}
		result = append(result, c)
		if len(result) == n.cfg.K {
			break
		}
	}
	return result, total, nil
}

func countLiveReference(states map[Key]*lookupState) int {
	live := 0
	for _, st := range states {
		if st.queried && !st.failed {
			live++
		}
	}
	return live
}

func widenReference(rt *routingTable, target Key, states map[Key]*lookupState, shortlist *[]Contact) bool {
	added := false
	for _, c := range rt.closest(target, 1<<20) {
		if _, ok := states[c.ID]; ok {
			continue
		}
		states[c.ID] = &lookupState{}
		*shortlist = append(*shortlist, c)
		added = true
	}
	return added
}

func bestDistanceReference(target Key, list []Contact, states map[Key]*lookupState) Key {
	for _, c := range list {
		if st := states[c.ID]; st != nil && st.failed {
			continue
		}
		return c.ID.XOR(target)
	}
	var max Key
	for i := range max {
		max[i] = 0xFF
	}
	return max
}

// refState is one contact's progress in convergeReference.
type refState struct {
	asked, done, ok, failed bool
	at                      time.Duration
	order                   int
	closer                  []Contact
}

// convergeReference is the arrival-order schedule written apart from
// iterativeLookup: contact states in a map, the shortlist re-sorted after
// every answer, the answer in flight found by scanning the map's states
// in shortlist order. After each answer it asks every unasked contact
// among the K nearest not known to have failed, applies the earliest
// answer in flight (ties in issue order) and stops once those K have all
// answered; with fewer than K live contacts known and nothing in flight
// it widens from the routing table.
func convergeReference(n *Node, target Key, query refQuery, onArrival func(soFar netsim.Cost)) ([]Contact, netsim.Cost) {
	k := n.cfg.K
	shortlist := n.rt.closest(target, k)
	states := make(map[Key]*refState)
	for _, c := range shortlist {
		states[c.ID] = &refState{}
	}
	var total netsim.Cost
	issued := 0
	for {
		sort.Slice(shortlist, func(i, j int) bool { return DistanceLess(target, shortlist[i].ID, shortlist[j].ID) })
		var top []Contact
		for _, c := range shortlist {
			if !states[c.ID].failed && len(top) < k {
				top = append(top, c)
			}
		}
		for _, c := range top {
			st := states[c.ID]
			if st.asked {
				continue
			}
			closer, ok, cost := query(c)
			*st = refState{asked: true, ok: ok, at: total.Latency + cost.Latency, order: issued, closer: closer}
			issued++
			total.Msgs += cost.Msgs
			total.Bytes += cost.Bytes
		}
		all := len(top) == k
		for _, c := range top {
			all = all && states[c.ID].done
		}
		if all {
			break
		}
		var next *refState
		for _, c := range shortlist {
			st := states[c.ID]
			if st.asked && !st.done && (next == nil || st.at < next.at || st.at == next.at && st.order < next.order) {
				next = st
			}
		}
		if next == nil {
			before := len(shortlist)
			for _, c := range n.rt.closest(target, 1<<20) {
				if states[c.ID] == nil {
					states[c.ID] = &refState{}
					shortlist = append(shortlist, c)
				}
			}
			if len(shortlist) == before {
				break
			}
			continue
		}
		total.Latency = next.at
		next.done, next.failed = true, !next.ok
		if next.ok {
			for _, cc := range next.closer {
				if cc.ID != n.self.ID && states[cc.ID] == nil {
					states[cc.ID] = &refState{}
					shortlist = append(shortlist, cc)
				}
			}
		}
		onArrival(total)
	}
	var result []Contact
	for _, c := range shortlist {
		if st := states[c.ID]; st.done && !st.failed && len(result) < k {
			result = append(result, c)
		}
	}
	return result, total
}

// TestLookupMatchesReference: iterativeLookup walks exactly as the
// references do. Identical seeded swarms go through the same script —
// nodes going down and coming back, a lossy network that makes calls
// retry and fail, and every fourth walk starting with all but two of the
// walker's K closest down, so the shortlist dies and must widen. On the
// converging (K-wide) schedule each walk must return what
// convergeReference returns on a twin swarm — the same contacts, the same
// cost and the same clock at every arrival, asking the same contacts in
// the same order. The first-answer schedule must match the lock-step
// reference (iterativeLookupReference) at width alpha the same way, clock
// at every round included. Every node's state (Digest) must end as its
// twin's.
func TestLookupMatchesReference(t *testing.T) {
	schedules := []struct {
		name        string
		firstAnswer bool
	}{
		{"K-wide", false},
		{"first-answer", true},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, s := range schedules {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, s.name), func(t *testing.T) {
				netA, a := buildSeededSwarm(t, seed, 40, DefaultConfig())
				netB, b := buildSeededSwarm(t, seed, 40, DefaultConfig())
				setDown := func(addr netsim.NodeID, down bool) {
					netA.SetDown(addr, down)
					netB.SetDown(addr, down)
				}
				netA.SetDropRate(0.05)
				netB.SetDropRate(0.05)
				rng := xrand.New(seed)
				widened := 0
				for step := 0; step < 80; step++ {
					if step%10 == 0 {
						i := 1 + rng.Intn(len(a)-1)
						setDown(a[i].self.Addr, !netA.IsDown(a[i].self.Addr))
					}
					w := rng.Intn(len(a))
					if netA.IsDown(a[w].self.Addr) {
						continue
					}
					target := KeyOfString(fmt.Sprintf("ref-%d-%d", seed, step))
					var dead []Contact
					if step%4 == 0 {
						dead = a[w].rt.closest(target, a[w].cfg.K)[2:]
						for _, c := range dead {
							setDown(c.Addr, true)
						}
					}
					type trace struct {
						asked []netsim.NodeID
						clock []netsim.Cost
					}
					// heard is what the walk could know without widening:
					// the K closest it starts from and every answer.
					heard := make(map[netsim.NodeID]bool)
					for _, c := range a[w].rt.closest(target, a[w].cfg.K) {
						heard[c.Addr] = true
					}
					ref := func(nd *Node, tr *trace) refQuery {
						return func(c Contact) ([]Contact, bool, netsim.Cost) {
							tr.asked = append(tr.asked, c.Addr)
							resp, cost, err := nd.call(c, findNodeReq{From: nd.self, Target: target})
							if err != nil {
								return nil, false, cost
							}
							return resp.(findNodeResp).Contacts, true, cost
						}
					}
					// The walk asks its walker first, in-process and for
					// free, and learns from it the K closest the references
					// start from.
					got, want := trace{}, trace{asked: []netsim.NodeID{b[w].self.Addr}, clock: []netsim.Cost{{}}}
					query := ref(a[w], &got)
					var answered func() bool
					if s.firstAnswer {
						answered = never
					}
					gotC, gotCost, gotErr := a[w].iterativeLookup(context.Background(), target, answered,
						func(c Contact) (reply, bool, netsim.Cost) {
							closer, ok, cost := query(c)
							if !ok {
								return nil, false, cost
							}
							for _, cc := range closer {
								heard[cc.Addr] = true
							}
							return findNodeResp{Contacts: closer}, true, cost
						}, nil, func(c netsim.Cost) { got.clock = append(got.clock, c) })
					var wantC []Contact
					var wantCost netsim.Cost
					var wantErr error
					if s.firstAnswer {
						wantC, wantCost, wantErr = iterativeLookupReference(b[w], context.Background(), target, alpha, true,
							ref(b[w], &want), func(c netsim.Cost) { want.clock = append(want.clock, c) })
					} else {
						wantC, wantCost = convergeReference(b[w], target, ref(b[w], &want), func(c netsim.Cost) { want.clock = append(want.clock, c) })
					}
					for _, c := range dead {
						setDown(c.Addr, false)
					}
					for _, addr := range got.asked {
						if !heard[addr] {
							widened++
							break
						}
					}
					if fmt.Sprint(gotC, gotCost, gotErr) != fmt.Sprint(wantC, wantCost, wantErr) {
						t.Fatalf("step %d: walk found %v at %+v (err %v), reference %v at %+v (err %v)",
							step, gotC, gotCost, gotErr, wantC, wantCost, wantErr)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: walk asked %v, clock %v; reference asked %v, clock %v",
							step, got.asked, got.clock, want.asked, want.clock)
					}
				}
				for i := range a {
					if a[i].Digest() != b[i].Digest() {
						t.Fatalf("node %s: state differs from the reference swarm's", a[i].self.Addr)
					}
				}
				if widened == 0 {
					t.Fatal("no walk had to look past its dead shortlist")
				}
			})
		}
	}
}

// TestLookupArrivalOrderAgainstLockstep: from the same state, the
// arrival-order walk and the lock-step walk it replaced (the reference,
// at width K) converge on the same closest set, which on a healthy walk is
// the K nearest nodes brute force finds, and the arrival-order walk is
// never later. Each walk answers from a snapshot — every node's K
// closest to the key, a fixed latency per contact, a dead contact
// failing after three times its latency — so the two schedules see one
// world and the walker's table stays as it was; every other walk starts
// with three of the walker's K closest dead. The price is messages: a
// contact asked the moment it enters the K nearest can be displaced by an
// answer still in flight, where a lock-step round would have heard that
// answer first.
func TestLookupArrivalOrderAgainstLockstep(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes := buildSwarm(t, 40, cfg)
	byID := make(map[Key]*Node, len(nodes))
	for _, nd := range nodes {
		byID[nd.self.ID] = nd
	}
	rng := xrand.New(2047)
	var msgs, lockMsgs int
	var lat, lockLat time.Duration
	for step := 0; step < 200; step++ {
		target := KeyOfString(fmt.Sprintf("arrival-%d-%d", cfg.K, step))
		walker := nodes[rng.Intn(len(nodes))]
		dead := make(map[Key]bool)
		if step%2 == 0 {
			for _, c := range walker.rt.closest(target, cfg.K)[2:5] {
				dead[c.ID] = true
			}
		}
		latency := func(c Contact) time.Duration {
			h := c.ID.XOR(walker.self.ID)
			return time.Duration(10+int(h[0])) * time.Millisecond
		}
		query := func(c Contact) (reply, bool, netsim.Cost) {
			if dead[c.ID] {
				return nil, false, netsim.Cost{Latency: 3 * latency(c), Msgs: 1}
			}
			return findNodeResp{Contacts: byID[c.ID].rt.closest(target, cfg.K)}, true, netsim.Cost{Latency: latency(c), Msgs: 1}
		}
		got, cost, err := walker.iterativeLookup(context.Background(), target, nil, query, nil, nil)
		want, lockCost, lockErr := iterativeLookupReference(walker, context.Background(), target, cfg.K, false, func(c Contact) ([]Contact, bool, netsim.Cost) {
			r, ok, cost := query(c)
			if !ok {
				return nil, false, cost
			}
			return r.closer(), true, cost
		}, nil)
		if err != nil || lockErr != nil || fmt.Sprint(addrsOf(got)) != fmt.Sprint(addrsOf(want)) {
			t.Fatalf("step %d: walk found %v (err %v), the lock-step walk %v (err %v)", step, addrsOf(got), err, addrsOf(want), lockErr)
		}
		if oracle := nearest(nodes, walker, target, cfg.K); len(dead) == 0 && fmt.Sprint(addrsOf(got)) != fmt.Sprint(oracle) {
			t.Fatalf("step %d: walk found %v, the %d nearest nodes are %v", step, addrsOf(got), cfg.K, oracle)
		}
		if cost.Latency > lockCost.Latency {
			t.Fatalf("step %d: arrival-order walk took %v, the lock-step walk %v", step, cost.Latency, lockCost.Latency)
		}
		msgs, lockMsgs = msgs+cost.Msgs, lockMsgs+lockCost.Msgs
		lat, lockLat = lat+cost.Latency, lockLat+lockCost.Latency
	}
	t.Logf("mean %v for %.1f msgs a walk; lock-step %v for %.1f", lat/200, float64(msgs)/200, lockLat/200, float64(lockMsgs)/200)
}

var (
	closestSink []Contact
	lookupSink  []Contact
)

// TestLookupAllocs is the walk's allocation ratchet. closest allocates
// only the slice it returns. A converging walk (every converging walk is
// K-wide) allocates the table's K closest it starts from, its shortlist
// and its result, plus one allocation each time the shortlist outgrows
// its room (twice the K closest, doubling): its allocations are bounded
// by a constant plus those doublings, never by the answers it hears —
// each contact's answered and arrival state lives on its shortlist
// entry. Every contact answers from a reply boxed once up front, so only
// the walk's own allocations are counted, not the network's.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates too")
	}
	rt := newRoutingTable(KeyOfString("self"), 20)
	for i := 0; i < 40; i++ {
		rt.update(mkContact(i))
	}
	target := KeyOfString("allocs")
	for _, n := range []int{alpha, 8, 20} {
		if got := testing.AllocsPerRun(50, func() { closestSink = rt.closest(target, n) }); got != 1 {
			t.Errorf("closest(n=%d): %.0f allocs, want 1 (the result)", n, got)
		}
	}

	// 128 nodes: the walk hears of more than its shortlist first holds.
	_, nodes := buildSwarm(t, 128, DefaultConfig())
	walker := nodes[0]
	answers := make(map[Key]reply, len(nodes))
	for _, nd := range nodes {
		answers[nd.self.ID] = findNodeResp{Contacts: nd.rt.closest(target, nd.cfg.K)}
	}
	heard := make(map[Key]bool)
	for _, c := range walker.rt.closest(target, walker.cfg.K) {
		heard[c.ID] = true
	}
	query := func(c Contact) (reply, bool, netsim.Cost) {
		for _, cc := range answers[c.ID].closer() {
			heard[cc.ID] = true
		}
		return answers[c.ID], true, netsim.Cost{Msgs: 1}
	}
	arrivals := 0
	countArrivals := func(netsim.Cost) { arrivals++ }
	walk := func() {
		lookupSink, _, _ = walker.iterativeLookup(context.Background(), target, nil, query, nil, countArrivals)
	}
	walk()
	perWalk := arrivals
	doublings := bits.Len(uint((len(heard) - 1) / (2 * walker.cfg.K)))
	bound := float64(3 + doublings)
	if perWalk <= int(bound) {
		t.Fatalf("the walk heard %d answers: too few to tell a per-answer allocation from the bound %.0f", perWalk, bound)
	}
	got := testing.AllocsPerRun(20, walk)
	t.Logf("converged walk: %.0f allocs, %d answers, %d contacts heard of, bound %.0f", got, perWalk, len(heard), bound)
	if got > bound {
		t.Errorf("converged walk: %.0f allocs exceed the bound %.0f (%d answers, %d contacts heard of)", got, bound, perWalk, len(heard))
	}
}

// BenchmarkClosest ranks a 20-contact table for the 8 closest to a
// target, as every FIND_NODE, FIND_VALUE and GET_PROVIDERS answer does.
func BenchmarkClosest(b *testing.B) {
	rt := newRoutingTable(KeyOfString("self"), 20)
	for i := 0; i < 20; i++ {
		rt.update(mkContact(i))
	}
	targets := make([]Key, 64)
	for i := range targets {
		targets[i] = KeyOfString(fmt.Sprintf("target-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closestSink = rt.closest(targets[i%len(targets)], 8)
	}
}

// BenchmarkLookup runs converged K-wide walks (lookupNodes) from one node
// of a 24-node swarm over the simulated network, RPCs included, and
// reports each walk's simulated latency and messages beside its CPU.
func BenchmarkLookup(b *testing.B) {
	_, nodes := buildSwarm(b, 24, DefaultConfig())
	targets := make([]Key, 64)
	for i := range targets {
		targets[i] = KeyOfString(fmt.Sprintf("target-%d", i))
	}
	var total netsim.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, cost := nodes[0].lookupNodes(targets[i%len(targets)])
		if len(w.Closest) == 0 {
			b.Fatal("walk found nobody")
		}
		total = total.Seq(cost)
	}
	b.ReportMetric(float64(total.Latency)/float64(time.Millisecond)/float64(b.N), "sim_ms/op")
	b.ReportMetric(float64(total.Msgs)/float64(b.N), "msgs/op")
}
