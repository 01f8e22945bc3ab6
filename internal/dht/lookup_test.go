package dht

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

// lookupState tracks per-contact progress in iterativeLookupReference.
type lookupState struct {
	queried bool
	failed  bool
}

// iterativeLookupReference is iterativeLookup as it was when the shortlist
// was a contact slice re-sorted after every round, with each contact's
// progress in a map beside it.
func iterativeLookupReference(n *Node, ctx context.Context, target Key, width int, firstAnswer bool, query func(Contact) ([]Contact, bool, netsim.Cost), afterRound func(soFar netsim.Cost)) ([]Contact, netsim.Cost, error) {
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

// TestLookupMatchesReference: the sorted shortlist walks exactly as the
// map-and-sort reference did. Two identical seeded swarms, one walked by
// each, go through the same script — nodes going down and coming back, a
// lossy network that makes calls retry and fail, and every fourth walk
// starting with all but two of the walker's K closest down, so the
// shortlist dies and must widen. For the K-wide, the alpha-converged and
// the first-answer schedule, every walk must return the same contacts,
// the same cost and the same per-round clock, ask the same contacts in
// the same order, and leave every node's state (Digest) the same.
func TestLookupMatchesReference(t *testing.T) {
	schedules := []struct {
		name        string
		width       int
		firstAnswer bool
	}{
		{"K-wide", DefaultConfig().K, false},
		{"alpha-converged", alpha, false},
		{"first-answer", alpha, true},
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
						asked  []netsim.NodeID
						rounds []netsim.Cost
					}
					// heard is what the walk could know without widening:
					// the K closest it starts from and every answer.
					heard := make(map[netsim.NodeID]bool)
					for _, c := range a[w].rt.closest(target, a[w].cfg.K) {
						heard[c.Addr] = true
					}
					walk := func(nd *Node, tr *trace) func(Contact) ([]Contact, bool, netsim.Cost) {
						return func(c Contact) ([]Contact, bool, netsim.Cost) {
							tr.asked = append(tr.asked, c.Addr)
							resp, cost, err := nd.call(c, findNodeReq{From: nd.self, Target: target})
							if err != nil {
								return nil, false, cost
							}
							for _, cc := range resp.(findNodeResp).Contacts {
								heard[cc.Addr] = true
							}
							return resp.(findNodeResp).Contacts, true, cost
						}
					}
					var got, want trace
					gotC, gotCost, gotErr := a[w].iterativeLookup(context.Background(), target, s.width, s.firstAnswer,
						walk(a[w], &got), func(c netsim.Cost) { got.rounds = append(got.rounds, c) })
					wantC, wantCost, wantErr := iterativeLookupReference(b[w], context.Background(), target, s.width, s.firstAnswer,
						walk(b[w], &want), func(c netsim.Cost) { want.rounds = append(want.rounds, c) })
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
						t.Fatalf("step %d: walk asked %v, rounds %v; reference asked %v, rounds %v",
							step, got.asked, got.rounds, want.asked, want.rounds)
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

var (
	closestSink []Contact
	lookupSink  []Contact
)

// TestLookupAllocs is the walk's allocation ratchet. closest allocates
// only the slice it returns. A converged alpha-wide walk (discovery's
// shape) allocates its shortlist, its round buffer and its result, plus
// at most one doubling of the shortlist a round: its allocations are
// bounded by its rounds, never by the contacts it hears of. Every contact
// answers from a snapshot of its table, so only the walk's own
// allocations are counted, not the network's.
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
	answers := make(map[Key][]Contact, len(nodes))
	for _, nd := range nodes {
		answers[nd.self.ID] = nd.rt.closest(target, nd.cfg.K)
	}
	heard := make(map[Key]bool)
	for _, c := range walker.rt.closest(target, walker.cfg.K) {
		heard[c.ID] = true
	}
	query := func(c Contact) ([]Contact, bool, netsim.Cost) {
		for _, cc := range answers[c.ID] {
			heard[cc.ID] = true
		}
		return answers[c.ID], true, netsim.Cost{}
	}
	rounds := 0
	countRounds := func(netsim.Cost) { rounds++ }
	walk := func() {
		lookupSink, _, _ = walker.iterativeLookup(context.Background(), target, alpha, false, query, countRounds)
	}
	walk()
	perWalk := rounds
	bound := float64(4 + perWalk)
	if len(heard) <= int(bound) {
		t.Fatalf("the walk heard of %d contacts in %d rounds: too few to tell a per-contact allocation from the bound %.0f", len(heard), perWalk, bound)
	}
	got := testing.AllocsPerRun(20, walk)
	t.Logf("converged walk: %.0f allocs in %d rounds, %d contacts heard of, bound %.0f", got, perWalk, len(heard), bound)
	if got > bound {
		t.Errorf("converged walk: %.0f allocs exceed the bound %.0f (%d rounds, %d contacts heard of)", got, bound, perWalk, len(heard))
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
// of a 24-node swarm over the simulated network, RPCs included.
func BenchmarkLookup(b *testing.B) {
	_, nodes := buildSwarm(b, 24, DefaultConfig())
	targets := make([]Key, 64)
	for i := range targets {
		targets[i] = KeyOfString(fmt.Sprintf("target-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := nodes[0].lookupNodes(targets[i%len(targets)])
		if len(w.Closest) == 0 {
			b.Fatal("walk found nobody")
		}
	}
}
