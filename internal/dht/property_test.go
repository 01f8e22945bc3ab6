package dht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

// Property: for any set of keys and values, every value put into a
// bootstrapped swarm is retrievable from every live node, and the
// highest sequence always wins.
func TestPutGetRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nKeysRaw uint8) bool {
		nKeys := int(nKeysRaw%8) + 1
		rng := xrand.New(seed)

		net := netsim.New(netsim.DefaultConfig())
		nodes := make([]*Node, 12)
		for i := range nodes {
			nodes[i] = NewNode(net, netsim.NodeID(fmt.Sprintf("p%02d", i)), DefaultConfig())
		}
		for _, nd := range nodes[1:] {
			nd.Bootstrap([]Contact{nodes[0].Self()})
		}
		for _, nd := range nodes {
			nd.Bootstrap([]Contact{nodes[0].Self()})
		}

		type record struct {
			key Key
			val []byte
			seq uint64
		}
		var records []record
		for k := 0; k < nKeys; k++ {
			key := KeyOfString(fmt.Sprintf("key-%d-%d", seed, k))
			// Write 1-3 versions from random writers.
			versions := 1 + rng.Intn(3)
			var last []byte
			var lastSeq uint64
			for v := 1; v <= versions; v++ {
				val := []byte(fmt.Sprintf("val-%d-%d-%d", seed, k, v))
				writer := nodes[rng.Intn(len(nodes))]
				if _, _, err := writer.Put(key, val, uint64(v)); err != nil {
					return false
				}
				last, lastSeq = val, uint64(v)
			}
			records = append(records, record{key: key, val: last, seq: lastSeq})
		}
		for _, rec := range records {
			reader := nodes[rng.Intn(len(nodes))]
			got, seq, _, err := reader.GetCtx(context.Background(), rec.key)
			if err != nil || string(got) != string(rec.val) || seq != rec.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: GetImmutable always agrees with Get for write-once records.
func TestImmutableGetAgreesProperty(t *testing.T) {
	net := netsim.New(netsim.DefaultConfig())
	nodes := make([]*Node, 16)
	for i := range nodes {
		nodes[i] = NewNode(net, netsim.NodeID(fmt.Sprintf("q%02d", i)), DefaultConfig())
	}
	for _, nd := range nodes[1:] {
		nd.Bootstrap([]Contact{nodes[0].Self()})
	}
	for _, nd := range nodes {
		nd.Bootstrap([]Contact{nodes[0].Self()})
	}
	rng := xrand.New(7)
	for i := 0; i < 20; i++ {
		key := KeyOfString(fmt.Sprintf("imm-%d", i))
		val := []byte(fmt.Sprintf("content-%d", i))
		if _, _, err := nodes[rng.Intn(len(nodes))].Put(key, val, 0); err != nil {
			t.Fatal(err)
		}
		reader := nodes[rng.Intn(len(nodes))]
		a, _, _, errA := reader.GetCtx(context.Background(), key)
		b, _, errB := reader.GetImmutableCtx(context.Background(), key)
		if errA != nil || errB != nil {
			t.Fatalf("key %d: errs %v %v", i, errA, errB)
		}
		if string(a) != string(b) {
			t.Fatalf("key %d: Get %q != GetImmutable %q", i, a, b)
		}
	}
}

// Property: lookup message count stays logarithmic-ish in swarm size.
func TestLookupCostLogarithmic(t *testing.T) {
	cost := func(n int) int {
		net := netsim.New(netsim.DefaultConfig())
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = NewNode(net, netsim.NodeID(fmt.Sprintf("n%04d", i)), DefaultConfig())
		}
		for _, nd := range nodes[1:] {
			nd.Bootstrap([]Contact{nodes[0].Self()})
		}
		for _, nd := range nodes {
			nd.Bootstrap([]Contact{nodes[0].Self()})
		}
		key := KeyOfString("probe")
		nodes[1].Put(key, []byte("x"), 1)
		total := 0
		for i := 0; i < 10; i++ {
			_, _, c, err := nodes[2+i].GetCtx(context.Background(), key)
			if err != nil {
				t.Fatal(err)
			}
			total += c.Msgs
		}
		return total
	}
	small, large := cost(16), cost(256)
	// 16x nodes: allow at most ~4x messages (true growth is ~log n).
	if large > 4*small {
		t.Fatalf("lookup cost grew superlogarithmically: %d → %d msgs", small, large)
	}
}

// nearest is the brute-force oracle for a converged walk: the addresses
// of the k nodes nearest key by XOR distance, nearest first, the walker
// excluded — computed from the node list alone, sharing no code with the
// lookup or the routing table.
func nearest(nodes []*Node, walker *Node, key Key, k int) []netsim.NodeID {
	type candidate struct {
		dist [KeySize]byte
		addr netsim.NodeID
	}
	var all []candidate
	for _, nd := range nodes {
		if nd == walker {
			continue
		}
		c := candidate{addr: nd.self.Addr}
		for i := range c.dist {
			c.dist[i] = nd.self.ID[i] ^ key[i]
		}
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].dist[:], all[j].dist[:]) < 0 })
	out := make([]netsim.NodeID, k)
	for i := range out {
		out[i] = all[i].addr
	}
	return out
}

// addrsOf lists the addresses of contacts, in order.
func addrsOf(cs []Contact) []netsim.NodeID {
	out := make([]netsim.NodeID, len(cs))
	for i, c := range cs {
		out[i] = c.Addr
	}
	return out
}

// Property (walks that must converge ask each contact as soon as it is
// among the K closest known): on a healthy swarm every lookupNodes and
// Locate closest set is exactly the K nodes nearest the key, as brute
// force over the node list finds them. Both walks are the K-wide
// schedule: a twin swarm, built the same way and walked by hand at width
// K with the same requests, draws the same link latencies and pays
// exactly the same cost, key after key. Where the walker's table already
// holds the replica set, that walk sends exactly K messages and takes as
// long as the slowest of them.
func TestLookupClosestSetIsTheKNearest(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes := buildSwarm(t, 40, cfg)
	_, twins := buildSwarm(t, 40, cfg)
	rng := xrand.New(2026)
	ctx := context.Background()
	// byHand walks from twin at width K, asking each contact req, and
	// returns the latency of the slowest RPC it sent.
	byHand := func(twin *Node, key Key, req any) (netsim.Cost, time.Duration) {
		var slowest time.Duration
		ask := twin.asking(ctx, req)
		_, cost, err := twin.iterativeLookup(ctx, key, nil, func(c Contact) (reply, bool, netsim.Cost) {
			r, ok, cost := ask(c)
			slowest = max(slowest, cost.Latency)
			return r, ok, cost
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cost, slowest
	}
	oneRound := 0
	for i := 0; i < 200; i++ {
		key := KeyOfString(fmt.Sprintf("oracle-%d-%d", i, rng.Intn(1<<30)))
		at := rng.Intn(len(nodes))
		walker, twin := nodes[at], twins[at]
		want := fmt.Sprint(nearest(nodes, walker, key, cfg.K))
		known := fmt.Sprint(addrsOf(walker.rt.closest(key, cfg.K))) == want

		w, walkCost := walker.lookupNodes(key)
		loc, readCost, err := walker.Locate(ctx, key, nil)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d: Locate err = %v, want ErrNotFound", i, err)
		}
		for _, got := range []Walk{w, loc.Walk} {
			var addrs []netsim.NodeID
			for _, r := range got.Closest {
				addrs = append(addrs, r.Addr)
			}
			if fmt.Sprint(addrs) != want {
				t.Fatalf("key %d: walk from %s converged on %v, the %d nearest are %s", i, walker.self.Addr, addrs, cfg.K, want)
			}
		}
		nodeCost, nodeSlowest := byHand(twin, key, findNodeReq{From: twin.self, Target: key})
		valueCost, valueSlowest := byHand(twin, key, findValueReq{From: twin.self, Key: key})
		if walkCost != nodeCost || readCost != valueCost {
			t.Fatalf("key %d: lookupNodes %+v, Locate %+v; the K-wide walks by hand %+v and %+v", i, walkCost, readCost, nodeCost, valueCost)
		}
		if !known {
			continue
		}
		oneRound++
		if walkCost.Msgs != cfg.K || readCost.Msgs != cfg.K || walkCost.Latency != nodeSlowest || readCost.Latency != valueSlowest {
			t.Fatalf("key %d: table held the replica set, yet lookupNodes took %v for %d msgs, Locate %v for %d; want %d msgs and the slowest of them, %v and %v",
				i, walkCost.Latency, walkCost.Msgs, readCost.Latency, readCost.Msgs, cfg.K, nodeSlowest, valueSlowest)
		}
	}
	if oneRound < 50 {
		t.Fatalf("fixture: only %d of 200 walkers' tables held the replica set", oneRound)
	}
}

// Property (each walk's width): the first-answer walks, GetImmutable and
// FindProviders, ask alpha contacts a round, so a walker whose table lacks
// part of the closest set asks a contact it has just learned of before it
// has asked all K it knew. And a cold GetImmutable whose replica sits on
// one of the alpha contacts its walker knows nearest the key asks only up
// to that contact: at most alpha messages.
func TestLookupWalkWidths(t *testing.T) {
	cfg := DefaultConfig()
	net, nodes := buildSwarm(t, 40, cfg)
	byAddr := make(map[netsim.NodeID]*Node, len(nodes))
	for _, nd := range nodes {
		byAddr[nd.self.Addr] = nd
	}
	walker := nodes[len(nodes)-1]
	order, reset := recordQueries(net, nodes, walker.self.Addr)
	// learnedFirst reports whether the walk just recorded asked a contact
	// missing from known before it had asked every contact in known.
	learnedFirst := func(known []Contact) bool {
		in := make(map[netsim.NodeID]bool, len(known))
		for _, c := range known {
			in[c.Addr] = true
		}
		asked := 0
		for _, addr := range order() {
			if asked == len(known) {
				return false
			}
			if !in[addr] {
				return true
			}
			asked++
		}
		return false
	}
	rng := xrand.New(2027)
	walks := []struct {
		name string
		run  func(Key) error
	}{
		{"GetImmutable", func(k Key) error { _, _, err := walker.GetImmutableCtx(context.Background(), k); return err }},
		{"FindProviders", func(k Key) error { _, _, err := walker.FindProviders(k, 0); return err }},
	}
	narrow := make(map[string]int)
	for i := 0; i < 100; i++ {
		for _, w := range walks {
			missing := KeyOfString(fmt.Sprintf("stored-nowhere-%s-%d", w.name, i))
			known := walker.rt.closest(missing, cfg.K)
			reset()
			if err := w.run(missing); !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %d: %s err = %v, want ErrNotFound", i, w.name, err)
			}
			if learnedFirst(known) {
				narrow[w.name]++
			}
		}

		key := KeyOfString(fmt.Sprintf("first-replica-%d", i))
		at := rng.Intn(alpha)
		byAddr[walker.rt.closest(key, alpha)[at].Addr].StoreLocal(key, []byte("immutable"), 0)
		got, cost, err := walker.GetImmutableCtx(context.Background(), key)
		if err != nil || string(got) != "immutable" || cost.Msgs != at+1 {
			t.Fatalf("key %d: replica on the walker's contact %d of %d: GetImmutable = %q for %d msgs, err=%v; want %d msgs",
				i, at+1, alpha, got, cost.Msgs, err, at+1)
		}
	}
	for _, w := range walks {
		if narrow[w.name] < 50 {
			t.Fatalf("%d of 100 %s walks asked a learned contact before all K known: want alpha-wide rounds", narrow[w.name], w.name)
		}
	}
}

// holdersAt lists, in node order, the addresses of the nodes whose local
// store holds key at seq.
func holdersAt(nodes []*Node, key Key, seq uint64) []netsim.NodeID {
	var out []netsim.NodeID
	for _, nd := range nodes {
		nd.mu.Lock()
		sv, ok := nd.values[key]
		nd.mu.Unlock()
		if ok && sv.seq == seq {
			out = append(out, nd.self.Addr)
		}
	}
	return out
}

// announcedOn lists, in node order, the nodes holding a provider record
// for key that names who.
func announcedOn(nodes []*Node, key Key, who netsim.NodeID) []netsim.NodeID {
	var out []netsim.NodeID
	for _, nd := range nodes {
		nd.mu.Lock()
		ok := slices.ContainsFunc(nd.providers[key], func(c Contact) bool { return c.Addr == who })
		nd.mu.Unlock()
		if ok {
			out = append(out, nd.self.Addr)
		}
	}
	return out
}

// Property (a write rides its walk; a reused walk gets one wave): on a
// static network a plain Put or Provide lands on its writer and on
// exactly the contacts its walk reached — one message per contact asked,
// no wave after it — and reports the converged K as its holders. A write
// that reuses the walk of the read before it lands on its writer and on
// exactly that walk's K closest for one K-wide wave, and is what an
// unrelated node's quorum read returns.
func TestWalkReuseLandsWherePutLands(t *testing.T) {
	cfg := DefaultConfig()
	net, nodes := buildSwarm(t, 40, cfg)
	rng := xrand.New(2019)
	ctx := context.Background()
	closestOf := func(w Walk) []netsim.NodeID {
		var out []netsim.NodeID
		for _, r := range w.Closest {
			out = append(out, r.Addr)
		}
		return out
	}
	displaced := 0
	for i := 0; i < 200; i++ {
		key := KeyOfString(fmt.Sprintf("walk-reuse-%d-%d", i, rng.Intn(1<<30)))
		wi := rng.Intn(len(nodes))
		writer := nodes[wi]
		reader := nodes[(wi+1+rng.Intn(len(nodes)-1))%len(nodes)] // any other node

		// Versioned record: plain Put, then read-modify-write on one walk.
		order, _ := recordQueries(net, nodes, writer.self.Addr)
		_, putCost, err := writer.Put(key, []byte("v1"), 1)
		if err != nil {
			t.Fatalf("key %d: Put: %v", i, err)
		}
		reached := order()
		if putCost.Msgs != len(reached) {
			t.Fatalf("key %d: Put cost %d msgs, its walk asked %d contacts", i, putCost.Msgs, len(reached))
		}
		plain := holdersAt(nodes, key, 1)
		if sortedAddrs(plain) != sortedAddrs(append(reached, writer.self.Addr)) {
			t.Fatalf("key %d: Put landed on %v, its walk reached %v from %s", i, plain, reached, writer.self.Addr)
		}
		if len(reached) > cfg.K {
			displaced++
		}
		loc, _, err := writer.Locate(ctx, key, nil)
		if err != nil || !loc.converged || string(loc.Value) != "v1" || loc.Seq != 1 {
			t.Fatalf("key %d: Locate = %q seq=%d converged=%v err=%v", i, loc.Value, loc.Seq, loc.converged, err)
		}
		if loc.Replicas() != cfg.K {
			t.Fatalf("key %d: the read's walk saw %d replicas, want %d", i, loc.Replicas(), cfg.K)
		}
		for _, r := range loc.Closest {
			if !r.Held || r.Seq != 1 {
				t.Fatalf("key %d: closest contact %s reported held=%v seq=%d", i, r.Addr, r.Held, r.Seq)
			}
		}
		accepted, writeCost, err := writer.PutAt(loc.Walk, []byte("v2"), 2)
		if err != nil || accepted != cfg.K {
			t.Fatalf("key %d: PutAt accepted %d err=%v", i, accepted, err)
		}
		if writeCost.Msgs != cfg.K {
			t.Fatalf("key %d: PutAt cost %d msgs, want one %d-wide STORE wave and no walk", i, writeCost.Msgs, cfg.K)
		}
		if reused := holdersAt(nodes, key, 2); sortedAddrs(reused) != sortedAddrs(append(closestOf(loc.Walk), writer.self.Addr)) {
			t.Fatalf("key %d: PutAt from %s landed on %v, its walk's closest set is %v", i, writer.self.Addr, reused, closestOf(loc.Walk))
		}
		if got, seq, _, err := reader.GetCtx(context.Background(), key); err != nil || string(got) != "v2" || seq != 2 {
			t.Fatalf("key %d: Get from %s = %q seq=%d err=%v", i, reader.self.Addr, got, seq, err)
		}

		// Provider record: discovery's walk carries the announce.
		if _, _, err := writer.Provide(key); err != nil {
			t.Fatalf("key %d: Provide: %v", i, err)
		}
		fetcher := reader
		res, _, err := fetcher.FindProviders(key, 8)
		provs, found := res.All, res.Walk
		if err != nil || len(provs) != 1 || provs[0].Addr != writer.self.Addr || !found.converged {
			t.Fatalf("key %d: FindProviders = %v converged=%v err=%v", i, provs, found.converged, err)
		}
		announced, annCost, err := fetcher.ProvideAt(found)
		if err != nil || len(announced) != cfg.K || annCost.Msgs != cfg.K {
			t.Fatalf("key %d: ProvideAt announced %d for %d msgs err=%v, want one %d-wide wave", i, len(announced), annCost.Msgs, err, cfg.K)
		}
		// The contacts ProvideAt reports are exactly where the record
		// landed besides the fetcher: the discovery walk's closest set.
		reported := addrsOf(announced)
		if reused := announcedOn(nodes, key, fetcher.self.Addr); sortedAddrs(append(reported, fetcher.self.Addr)) != sortedAddrs(reused) || sortedAddrs(reported) != sortedAddrs(closestOf(found)) {
			t.Fatalf("key %d: ProvideAt reported %v, the record is on %v, discovery converged on %v", i, reported, reused, closestOf(found))
		}
		for _, nd := range nodes {
			nd.mu.Lock()
			nd.providers[key] = slices.DeleteFunc(slices.Clone(nd.providers[key]), func(c Contact) bool { return c.Addr == fetcher.self.Addr })
			nd.mu.Unlock()
		}
		order, _ = recordQueries(net, nodes, fetcher.self.Addr)
		holders, provCost, err := fetcher.Provide(key)
		if err != nil {
			t.Fatalf("key %d: plain Provide: %v", i, err)
		}
		reached = order()
		if provCost.Msgs != len(reached) {
			t.Fatalf("key %d: Provide cost %d msgs, its walk asked %d contacts", i, provCost.Msgs, len(reached))
		}
		if walked := announcedOn(nodes, key, fetcher.self.Addr); sortedAddrs(walked) != sortedAddrs(append(reached, fetcher.self.Addr)) {
			t.Fatalf("key %d: plain Provide landed on %v, its walk reached %v from %s", i, walked, reached, fetcher.self.Addr)
		}
		if got := addrsOf(holders); fmt.Sprint(got) != fmt.Sprint(closestOf(found)) {
			t.Fatalf("key %d: plain Provide reported %v, want the converged closest set %v", i, got, closestOf(found))
		}
	}
	if displaced == 0 {
		t.Fatal("fixture: no Put's walk reached past its converged K")
	}
}

// Property (a walked write is its walk): where the walker's table lacks
// part of the closest set, so the walk asks more than the K it starts
// from, a Put or Provide costs exactly what a K-wide walk sending the
// same record to each contact it asks costs on a twin swarm — the walk
// and no wave after it — for one message per contact asked. The record
// is on the walker and on every contact the walk reached, the K nearest
// among them, and Provide reports the K nearest as its holders, nearest
// first.
func TestWalkedWriteRidesItsWalk(t *testing.T) {
	cfg := DefaultConfig()
	net, nodes := buildSwarm(t, 40, cfg)
	_, twins := buildSwarm(t, 40, cfg)
	rng := xrand.New(2045)
	// byHand walks from twin at width K, sending req to each contact it
	// asks.
	byHand := func(twin *Node, key Key, req any) netsim.Cost {
		_, cost, err := twin.iterativeLookup(context.Background(), key, nil, twin.asking(context.Background(), req), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	walked := 0
	for i := 0; i < 200; i++ {
		key := KeyOfString(fmt.Sprintf("rides-%d-%d", i, rng.Intn(1<<30)))
		at := rng.Intn(len(nodes))
		walker, twin := nodes[at], twins[at]
		want := nearest(nodes, walker, key, cfg.K)
		if fmt.Sprint(addrsOf(walker.rt.closest(key, cfg.K))) == fmt.Sprint(want) {
			continue // the table holds the closest set: a one-round walk
		}
		walked++
		val := []byte(fmt.Sprintf("record-%d", i))

		order, _ := recordQueries(net, nodes, walker.self.Addr)
		accepted, cost, err := walker.Put(key, val, 1)
		if err != nil || accepted != cfg.K {
			t.Fatalf("key %d: Put accepted %d, err=%v; want %d", i, accepted, err, cfg.K)
		}
		walkCost := byHand(twin, key, storeReq{From: twin.self, Key: key, Value: val, Seq: 1, Closer: true})
		if cost != walkCost || walkCost.Msgs <= cfg.K {
			t.Fatalf("key %d: Put cost %+v, its walk %+v: a wave followed the walk", i, cost, walkCost)
		}
		reached := order()
		if cost.Msgs != len(reached) {
			t.Fatalf("key %d: Put sent %d msgs to %v, want one per contact asked", i, cost.Msgs, reached)
		}
		// held lists each node once, so an equal reached asked none twice.
		held := holdersAt(nodes, key, 1)
		if sortedAddrs(held) != sortedAddrs(append(reached, walker.self.Addr)) || !isSubset(want, held) {
			t.Fatalf("key %d: the record is on %v; the walk reached %v, the %d nearest are %v", i, held, reached, cfg.K, want)
		}

		order, _ = recordQueries(net, nodes, walker.self.Addr)
		holders, cost, err := walker.Provide(key)
		if err != nil {
			t.Fatalf("key %d: Provide: %v", i, err)
		}
		if walkCost := byHand(twin, key, addProviderReq{From: twin.self, Key: key, Provider: twin.self, Closer: true}); cost != walkCost {
			t.Fatalf("key %d: Provide cost %+v, its walk %+v", i, cost, walkCost)
		}
		reached = order()
		if cost.Msgs != len(reached) {
			t.Fatalf("key %d: Provide sent %d msgs to %d contacts", i, cost.Msgs, len(reached))
		}
		if on := announcedOn(nodes, key, walker.self.Addr); sortedAddrs(on) != sortedAddrs(append(reached, walker.self.Addr)) || !isSubset(want, on) {
			t.Fatalf("key %d: the provider record is on %v; the walk reached %v, the %d nearest are %v", i, on, reached, cfg.K, want)
		}
		if fmt.Sprint(addrsOf(holders)) != fmt.Sprint(want) {
			t.Fatalf("key %d: Provide reported %v, want the converged K %v", i, addrsOf(holders), want)
		}
	}
	if walked < 50 {
		t.Fatalf("fixture: only %d of 200 walkers' tables lacked part of the closest set", walked)
	}
}

// sortedAddrs prints addrs in ascending order, for comparing sets.
func sortedAddrs(addrs []netsim.NodeID) string {
	addrs = slices.Clone(addrs)
	slices.Sort(addrs)
	return fmt.Sprint(addrs)
}

// isSubset reports whether every address of sub is in set.
func isSubset(sub, set []netsim.NodeID) bool {
	for _, a := range sub {
		if !slices.Contains(set, a) {
			return false
		}
	}
	return true
}

// recordQueries wraps every node's handler so that the order in which
// from's provider, value and write requests reach the swarm is
// observable; reset clears the log between walks.
func recordQueries(net *netsim.Network, nodes []*Node, from netsim.NodeID) (order func() []netsim.NodeID, reset func()) {
	var log []netsim.NodeID
	for _, nd := range nodes {
		nd := nd
		net.Register(nd.self.Addr, func(caller netsim.NodeID, req any) (any, error) {
			switch req.(type) {
			case getProvidersReq, findValueReq, storeReq, addProviderReq:
				if caller == from {
					log = append(log, nd.self.Addr)
				}
			}
			return nd.handle(caller, req)
		})
	}
	return func() []netsim.NodeID { return log }, func() { log = nil }
}

// FNV-1a folds of TestFindProvidersFirstAnswer's first pass, 200 walks.
// findProvidersFound folds what each walk discovers — provider set and
// converged closest set — and was recorded before walks that converge
// went K-wide: how wide the swarm's other lookups ask must not change
// what discovery finds. findProvidersCost folds what each walk costs —
// message count and latency — which moves whenever any lookup's schedule
// or traffic does (the swarm's bootstrap and Provide walks included), so
// it is the one to re-record, deliberately, when those change. It was
// last re-recorded when every write began to land on its writer too: a
// provider's own node answers GET_PROVIDERS with its record, so answers
// that name it are longer and take longer on the wire.
const (
	findProvidersFound = uint64(7364604719937282351)
	findProvidersCost  = uint64(10085137669610112096)
)

// Property (retrieval starts at the first provider answer): discovery
// still runs its one walk to convergence — same providers, same closest
// set, same traffic as before — and additionally says when the first
// provider record arrived and who was known then. That point is never
// later than the walk's end, coincides with it when the only record
// holder is the last contact the walk reaches, and is time zero when
// the node's own records name a provider.
func TestFindProvidersFirstAnswer(t *testing.T) {
	cfg := DefaultConfig()
	net, nodes := buildSwarm(t, 40, cfg)
	rng := xrand.New(2022)
	fetcher := nodes[len(nodes)-1]
	order, reset := recordQueries(net, nodes, fetcher.self.Addr)

	foundFold, costFold := uint64(14695981039346656037), uint64(14695981039346656037)
	mix := func(fold *uint64, s string) {
		for i := 0; i < len(s); i++ {
			*fold = (*fold ^ uint64(s[i])) * 1099511628211
		}
	}
	lastRound, early := 0, 0
	for i := 0; i < 200; i++ {
		key := KeyOfString(fmt.Sprintf("first-answer-%d-%d", i, rng.Intn(1<<30)))
		var want []string
		for _, pi := range rng.Perm(len(nodes) - 1)[:1+rng.Intn(3)] {
			if _, _, err := nodes[pi].Provide(key); err != nil {
				t.Fatalf("key %d: Provide: %v", i, err)
			}
			want = append(want, string(nodes[pi].self.Addr))
		}
		sort.Strings(want)
		fetcher.mu.Lock()
		local := len(fetcher.providers[key])
		fetcher.mu.Unlock()

		reset()
		res, cost, err := fetcher.FindProviders(key, 8)
		if err != nil || !res.Walk.converged || len(res.Walk.Closest) != cfg.K {
			t.Fatalf("key %d: converged=%v closest=%d err=%v", i, res.Walk.converged, len(res.Walk.Closest), err)
		}
		var all []string
		for _, p := range res.All {
			all = append(all, string(p.Addr))
		}
		if fmt.Sprint(all) != fmt.Sprint(want) {
			t.Fatalf("key %d: providers %v, want %v", i, all, want)
		}
		mix(&foundFold, fmt.Sprint(all))
		for _, r := range res.Walk.Closest {
			mix(&foundFold, string(r.Addr))
		}
		mix(&costFold, fmt.Sprintf("|%d|%d;", cost.Msgs, cost.Latency))
		if len(order()) != cost.Msgs {
			t.Fatalf("key %d: %d provider queries seen, %d msgs billed", i, len(order()), cost.Msgs)
		}

		first := res.FirstCost
		if first.Latency > cost.Latency || first.Msgs > cost.Msgs || first.Bytes > cost.Bytes {
			t.Fatalf("key %d: first answer after %+v, whole walk %+v", i, first, cost)
		}
		if len(res.First) == 0 || len(without(res.First, res.All)) != 0 {
			t.Fatalf("key %d: first answer named %v, the walk %v", i, res.First, res.All)
		}
		if local > 0 {
			// The fetcher is one of the K closest and holds records itself.
			if first != (netsim.Cost{}) || len(res.First) != local || cost.Msgs == 0 {
				t.Fatalf("key %d: %d local records, first answer %v after %+v, walk %d msgs", i, local, res.First, first, cost.Msgs)
			}
			continue
		}
		if first.Msgs == 0 {
			t.Fatalf("key %d: no local record, yet the first answer cost nothing", i)
		}
		if first.Latency < cost.Latency {
			early++
		}

		// Move the records onto the contact the walk reaches last, alone.
		last := order()[len(order())-1]
		for _, nd := range nodes {
			nd.mu.Lock()
			delete(nd.providers, key)
			if nd.self.Addr == last {
				nd.providers[key] = []Contact{res.All[0]}
			}
			nd.mu.Unlock()
		}
		reset()
		res, cost, err = fetcher.FindProviders(key, 8)
		if got := order(); err == ErrNotFound || got[len(got)-1] != last {
			continue // the walk took another path this time
		}
		if err != nil {
			t.Fatalf("key %d: records on %s only: %v", i, last, err)
		}
		lastRound++
		if res.FirstCost != cost || len(without(res.All, res.First)) != 0 {
			t.Fatalf("key %d: sole holder queried last, first answer after %+v of %+v naming %v of %v",
				i, res.FirstCost, cost, res.First, res.All)
		}
	}
	if early < 100 || lastRound < 100 {
		t.Fatalf("fixture: %d walks heard of a provider before they converged, %d reached the sole holder last", early, lastRound)
	}
	if foundFold != findProvidersFound {
		t.Fatalf("what the 200 walks found folds to %d, recorded %d: discovery changed what it finds", foundFold, findProvidersFound)
	}
	if costFold != findProvidersCost {
		t.Fatalf("what the 200 walks cost folds to %d, recorded %d: a lookup schedule changed", costFold, findProvidersCost)
	}
}

// without returns the contacts of list that are not in drop.
func without(list, drop []Contact) []Contact {
	var out []Contact
	for _, c := range list {
		found := false
		for _, d := range drop {
			found = found || d.Addr == c.Addr
		}
		if !found {
			out = append(out, c)
		}
	}
	return out
}

// Property (a self-certifying read goes past a bad copy): GetCheckedCtx
// treats a value its check rejects as a miss at the contact that sent
// it and goes on to the next holder. On a fresh twin swarm per step, one
// record is Put and then read from a node that holds no copy; step f
// tampers the f holders that answered steps 0 … f−1, so every tampered
// copy is one the read would otherwise have taken. For every f < K the
// read returns the honest value. A bad copy's reply still names its
// contacts, so the walk learns the next holders from it; what a bad copy
// costs is the rest of its lock-step round, which an honest copy would
// have made free: at most alpha messages each, and about one on average.
// With no bad copy the checked read costs exactly what GetImmutableCtx
// costs, and a reader whose own copy is tampered walks as a reader with
// no copy does.
func TestGetCheckedSkipsTamperedReplicas(t *testing.T) {
	cfg := DefaultConfig()
	extra, bad := 0, 0
	honest := []byte("the honest record")
	valid := func(v []byte) bool { return bytes.Equal(v, honest) }
	for i := 0; i < 10; i++ {
		key := KeyOfString(fmt.Sprintf("checked-%d", i))
		// boot builds the swarm afresh, stores the record and names a
		// reader holding no copy.
		boot := func() (*netsim.Network, []*Node, *Node) {
			net, nodes := buildSwarm(t, 40, cfg)
			if _, _, err := nodes[i].Put(key, honest, 0); err != nil {
				t.Fatalf("key %d: Put: %v", i, err)
			}
			for j := range nodes {
				if r := nodes[(i+7+j)%len(nodes)]; len(holdersAt([]*Node{r}, key, 0)) == 0 {
					return net, nodes, r
				}
			}
			t.Fatalf("key %d: every node holds the record", i)
			return nil, nil, nil
		}

		_, nodes, _ := boot()
		holders := holdersAt(nodes, key, 0)
		_, _, twin := boot()
		plain, plainCost, err := twin.GetImmutableCtx(context.Background(), key)
		if err != nil || !bytes.Equal(plain, honest) {
			t.Fatalf("key %d: unchecked read %q err=%v", i, plain, err)
		}

		var tampered []netsim.NodeID
		var base netsim.Cost
		for f := 0; f < cfg.K && f < len(holders); f++ {
			net, nodes, reader := boot()
			for _, nd := range nodes {
				if slices.Contains(tampered, nd.self.Addr) {
					nd.StoreLocal(key, []byte("a tampered record"), 0)
				}
			}
			order, _ := recordQueries(net, nodes, reader.self.Addr)
			got, cost, err := reader.GetCheckedCtx(context.Background(), key, valid)
			if err != nil || !bytes.Equal(got, honest) {
				t.Fatalf("key %d, %d of %d copies tampered: read %q err=%v", i, f, len(holders), got, err)
			}
			if f == 0 {
				base = cost
				if cost != plainCost {
					t.Fatalf("key %d: checked read %+v with no bad copy, unchecked %+v", i, cost, plainCost)
				}
			}
			if cost.Msgs > base.Msgs+alpha*f {
				t.Fatalf("key %d, %d copies tampered: %d msgs, the untampered read %d", i, f, cost.Msgs, base.Msgs)
			}
			extra += cost.Msgs - base.Msgs
			asked := order()
			answered := asked[len(asked)-1] // the walk asks no one after the copy it takes
			if slices.Contains(tampered, answered) || !slices.Contains(holders, answered) {
				t.Fatalf("key %d: the read took its copy from %s; holders %v, tampered %v", i, answered, holders, tampered)
			}
			tampered = append(tampered, answered)
		}
		if len(tampered) < cfg.K {
			t.Fatalf("key %d: only %d holders to tamper", i, len(tampered))
		}
		bad += cfg.K * (cfg.K - 1) / 2

		// The reader's own copy is checked like any other.
		holder := func(nodes []*Node) *Node {
			return nodes[slices.IndexFunc(nodes, func(nd *Node) bool { return nd.self.Addr == holders[0] })]
		}
		_, nodes, _ = boot()
		own := holder(nodes)
		own.StoreLocal(key, []byte("a tampered record"), 0)
		got, ownCost, err := own.GetCheckedCtx(context.Background(), key, valid)
		_, nodes, _ = boot()
		bare := holder(nodes)
		bare.mu.Lock()
		delete(bare.values, key)
		bare.mu.Unlock()
		_, bareCost, bareErr := bare.GetCheckedCtx(context.Background(), key, valid)
		if err != nil || bareErr != nil || !bytes.Equal(got, honest) || ownCost != bareCost || ownCost.Msgs == 0 {
			t.Fatalf("key %d: own copy tampered: read %q for %+v err=%v; with no own copy %+v err=%v", i, got, ownCost, err, bareCost, bareErr)
		}
	}
	t.Logf("%.2f messages more per bad copy", float64(extra)/float64(bad))
	if 2*extra > 3*bad {
		t.Fatalf("%d messages more for %d bad copies: want about one each", extra, bad)
	}
}
