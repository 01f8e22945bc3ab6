package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E2",
		Title: "Latency & throughput vs replication (DWeb advantage)",
		Claim: "better browsing experiences in terms of shorter latency and higher throughput",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Resilience to node failure and partitioning (the central server is down whenever any machine is)",
		Claim: "better resiliency against network partitioning",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E4",
		Title: "Resilience to DDoS",
		Claim: "better resiliency against distributed-denial-of-service attacks",
		Run:   runE4,
	})
}

// buildStoreSwarm creates a content swarm of n peers named
// <prefix>-000, <prefix>-001, … and bootstraps them off the first in two
// passes, the second taking in the first itself, so that the early
// joiners also learn of the later ones.
func buildStoreSwarm(seed uint64, n int, prefix string, pcfg store.PeerConfig) (*netsim.Network, []*store.Peer) {
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = seed
	net := netsim.New(ncfg)
	peers := make([]*store.Peer, n)
	for i := range peers {
		d := dht.NewNode(net, netsim.NodeID(fmt.Sprintf("%s-%03d", prefix, i)), dht.DefaultConfig())
		peers[i] = store.NewPeer(net, d, pcfg)
	}
	seedContact := peers[0].DHT().Self()
	for pass := 0; pass < 2; pass++ {
		for _, p := range peers[1-pass:] {
			//detlint:ignore costdrop swarm assembly; experiments measure steady-state traffic, not join cost
			p.DHT().Bootstrap([]dht.Contact{seedContact})
		}
	}
	return net, peers
}

// publish adds data at from, then fetches it on each of primers in turn
// so that each holds a cache replica. It panics on any failure: every
// table that publishes this way measures what happens after.
func publish(from *store.Peer, data []byte, primers ...*store.Peer) store.CID {
	//detlint:ignore costdrop publish is setup; the tables measure what follows it
	root, _, err := from.Add(data)
	if err != nil {
		panic(err)
	}
	for _, p := range primers {
		//detlint:ignore costdrop replica priming is setup; the tables measure what follows it
		if _, _, err := p.Fetch(root); err != nil {
			panic(err)
		}
	}
	return root
}

// fetchEach fetches every root from reader, in order, and returns the
// bytes of each (nil where the fetch failed) and the number that
// arrived.
func fetchEach(reader *store.Peer, roots []store.CID) (got [][]byte, ok int) {
	got = make([][]byte, len(roots))
	for i, root := range roots {
		//detlint:ignore costdrop availability probe; only what arrives feeds the tables
		if data, _, err := reader.Fetch(root); err == nil {
			got[i] = data
			ok++
		}
	}
	return got, ok
}

// runE2: a 10 KB document is published once; `r` early readers fetch it
// (becoming cache providers); then a wave of readers measures latency.
// More replicas → shorter paths and more aggregate service capacity.
func runE2(seed uint64) []*metrics.Table {
	const swarm = 64
	rng := xrand.New(seed)
	doc := make([]byte, 10_000)
	rng.Bytes(doc)

	t := metrics.NewTable("E2 — fetch latency & throughput vs replication",
		"replicas", "p50 ms", "p95 ms", "mean msgs", "providers", "est QPS capacity")

	for _, r := range []int{1, 2, 4, 8, 16} {
		_, peers := buildStoreSwarm(seed, swarm, "peer", store.PeerConfig{})
		// The publisher is the first of r replicas.
		root := publish(peers[0], doc, peers[1:r]...)
		var lat, msgs metrics.Histogram
		readers := 0
		for i := r; i < r+30 && i < swarm; i++ {
			_, cost, err := peers[i].Fetch(root)
			if err != nil {
				continue
			}
			readers++
			lat.AddDuration(cost.Latency)
			msgs.Add(float64(cost.Msgs))
		}
		//detlint:ignore costdrop provider census probe; not part of the measured fetch wave
		found, _, err := peers[swarm-1].DHT().FindProviders(root.Key(), 64)
		if err != nil {
			panic(err)
		}
		providers := found.All
		// Capacity proxy: each provider can serve ~1/latency QPS.
		capacity := 0.0
		if m := lat.Median(); m > 0 {
			capacity = float64(len(providers)) / m
		}
		t.AddRow(r, lat.Median()*1000, lat.Quantile(0.95)*1000, msgs.Mean(), len(providers), capacity)
	}

	// Latency references: the centralized origin, and the DWeb case the
	// paper's "shorter latency" claim actually rests on — content already
	// cached on (or near) the reading device.
	t2 := metrics.NewTable("E2b — latency reference points", "system", "p50 ms", "p95 ms")
	{
		_, peers := buildStoreSwarm(seed, 16, "peer", store.PeerConfig{})
		// A cold fetch populates each reader's cache; the measured
		// fetch repeats it.
		root := publish(peers[0], doc, peers[1:11]...)
		var lat metrics.Histogram
		for i := 1; i < 11; i++ {
			_, cost, err := peers[i].Fetch(root)
			if err == nil {
				lat.AddDuration(cost.Latency)
			}
		}
		t2.AddRow("DWeb repeat fetch (local cache)", lat.Median()*1000, lat.Quantile(0.95)*1000)
	}
	{
		ncfg := netsim.DefaultConfig()
		ncfg.Seed = seed
		net := netsim.New(ncfg)
		net.Register("origin", func(netsim.NodeID, any) (any, error) {
			return sizedPayload{n: len(doc)}, nil
		})
		var lat metrics.Histogram
		for i := 0; i < 30; i++ {
			client := netsim.NodeID(fmt.Sprintf("client-%d", i))
			net.Register(client, nil)
			_, cost, err := net.CallCtx(context.Background(), client, "origin", sizedPayload{n: 64})
			if err == nil {
				lat.AddDuration(cost.Latency)
			}
		}
		t2.AddRow("single origin server", lat.Median()*1000, lat.Quantile(0.95)*1000)
	}
	// Swarming ablation: a large (200 KB) document fetched from one
	// provider vs chunk-striped across four.
	t3 := metrics.NewTable("E2c — swarming fetch ablation (200 KB doc, 4 replicas)",
		"mode", "p50 ms", "p95 ms")
	big := make([]byte, 200_000)
	xrand.New(seed + 7).Bytes(big)
	for _, swarming := range []bool{false, true} {
		_, peers := buildStoreSwarm(seed, 32, "sw", store.PeerConfig{Swarming: swarming})
		root := publish(peers[0], big, peers[1:4]...)
		var lat metrics.Histogram
		for i := 10; i < 25; i++ {
			_, cost, err := peers[i].Fetch(root)
			if err == nil {
				lat.AddDuration(cost.Latency)
			}
		}
		mode := "single provider"
		if swarming {
			mode = "swarming (striped)"
		}
		t3.AddRow(mode, lat.Median()*1000, lat.Quantile(0.95)*1000)
	}
	return []*metrics.Table{t, t2, t3}
}

type sizedPayload struct{ n int }

func (s sizedPayload) WireSize() int { return s.n }

// runE3: availability under crash faults and a 50/50 partition,
// QueenBee's replicated DHT vs the centralized engine. The central server
// is one of the machines, down whenever any fraction is, so its column is
// one probe per row: 100 or 0.
func runE3(seed uint64) []*metrics.Table {
	const swarm = 48
	const docs = 30
	rng := xrand.New(seed)

	t := metrics.NewTable("E3 — fetch availability vs failed fraction",
		"failed %", "DWeb success %", "central success %")

	for _, frac := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		net, peers := buildStoreSwarm(seed, swarm, "peer", store.PeerConfig{})
		roots := make([]store.CID, docs)
		for i := range roots {
			data := []byte(fmt.Sprintf("document %d body %d", i, rng.Intn(1000)))
			// One cache replica each (pre-failure, so it cannot fail).
			roots[i] = publish(peers[i%16], data, peers[(i+16)%32])
		}
		// Centralized reference on the same network.
		clock := vclock.New(time.Time{})
		src := baseline.NewMapSource()
		for i := 0; i < docs; i++ {
			src.Set(urlOf(i), fmt.Sprintf("central doc %d", i))
		}
		central := baseline.NewCentralEngine(net, clock, "central-server", src, time.Hour)

		// Fail a fraction of nodes — the reader (last peer) stays up; the
		// central server fails as soon as any fraction does (it is one of
		// the machines).
		down := int(frac * swarm)
		perm := rng.Perm(swarm - 1)
		for i := 0; i < down; i++ {
			net.SetDown(peers[perm[i]].Addr(), true)
		}
		if down > 0 {
			net.SetDown(central.Addr(), true)
		}

		_, ok := fetchEach(peers[swarm-1], roots)
		centralOK := 0.0
		//detlint:ignore costdrop availability probe; only success/failure feeds the table
		if _, _, err := central.Search("peer-047", "central doc", 10); err == nil {
			centralOK = 100
		}
		t.AddRow(int(frac*100), 100*float64(ok)/docs, centralOK)
	}

	// Partition scenario: split the swarm in half; a reader in each half
	// fetches content published pre-partition.
	t2 := metrics.NewTable("E3b — 50/50 partition", "scenario", "success %")
	{
		net, peers := buildStoreSwarm(seed, swarm, "peer", store.PeerConfig{})
		roots := make([]store.CID, docs)
		for i := range roots {
			// Replica in the other half, placed pre-partition.
			roots[i] = publish(peers[i%swarm], []byte(fmt.Sprintf("partition doc %d", i)), peers[(i+swarm/2)%swarm])
		}
		groups := map[netsim.NodeID]int{}
		for i, p := range peers {
			groups[p.Addr()] = i % 2
		}
		net.SetPartition(groups)
		_, okA := fetchEach(peers[0], roots)
		_, okB := fetchEach(peers[1], roots)
		t2.AddRow("DWeb side A", 100*float64(okA)/docs)
		t2.AddRow("DWeb side B", 100*float64(okB)/docs)
		t2.AddRow("central (server in other half)", 0.0)
	}
	return []*metrics.Table{t, t2}
}

// runE4: attacker load vs query success for one central server vs the
// spread-out swarm. The attacker has a fixed budget of L× the server's
// capacity; against the swarm the same budget spreads across all nodes.
func runE4(seed uint64) []*metrics.Table {
	const swarm = 48
	const capacity = 200.0 // requests/sec each node can serve

	t := metrics.NewTable("E4 — query success under DDoS",
		"attack ×capacity", "central success %", "central p95 ms", "DWeb success %", "DWeb p95 ms")

	for _, load := range []float64{0, 1, 4, 16, 64} {
		net, peers := buildStoreSwarm(seed, swarm, "peer", store.PeerConfig{})
		clock := vclock.New(time.Time{})
		src := baseline.NewMapSource()
		for i := 0; i < 20; i++ {
			src.Set(urlOf(i), fmt.Sprintf("searchable doc %d content", i))
		}
		central := baseline.NewCentralEngine(net, clock, "central-server", src, time.Hour)
		net.SetCapacity(central.Addr(), capacity)
		net.SetOfferedLoad(central.Addr(), load*capacity)

		// DWeb content: one doc replicated a few times, before the
		// attacker load is applied.
		root := publish(peers[0], []byte("resilient searchable content"), peers[1:4]...)
		// The attacker's identical budget spread across the whole swarm.
		for _, p := range peers {
			net.SetCapacity(p.Addr(), capacity)
			net.SetOfferedLoad(p.Addr(), load*capacity/float64(swarm))
		}

		var cLat, dLat metrics.Histogram
		cOK, dOK := 0, 0
		const trials = 60
		for i := 0; i < trials; i++ {
			if _, cost, err := central.Search(peers[swarm-1].Addr(), "searchable doc", 5); err == nil {
				cOK++
				cLat.AddDuration(cost.Latency)
			}
			reader := peers[swarm-1-(i%8)]
			if _, cost, err := reader.Fetch(root); err == nil {
				dOK++
				dLat.AddDuration(cost.Latency)
			}
		}
		t.AddRow(load,
			100*float64(cOK)/trials, cLat.Quantile(0.95)*1000,
			100*float64(dOK)/trials, dLat.Quantile(0.95)*1000)
	}
	return []*metrics.Table{t}
}
