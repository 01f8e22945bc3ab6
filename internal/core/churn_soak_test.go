package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// soakRounds bounds how many maintenance rounds the storm gets to heal.
const soakRounds = 4

// runChurnSoak executes one scripted churn storm — 50% of the peers
// crash at the first post-attach seal — then drives rounds of
// maintenance, measuring marker completeness before and after each
// repair pass. It returns a textual signature of everything observable
// (per-round hits, degraded flags, final repair counters) so reruns can
// be compared byte-for-byte.
func runChurnSoak(t *testing.T) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.NumPeers = 24
	cfg.NumBees = 3
	cfg.Maintenance = false // driven explicitly below, between measurements
	cfg.DegradedReads = true
	c := NewCluster(cfg)

	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	var markers []string
	firstText := make(map[string]string)
	for i := 0; i < 10; i++ {
		marker := fmt.Sprintf("churnmarker%02d", i)
		markers = append(markers, marker)
		url, text := fmt.Sprintf("dweb://churn/%d", i), "stable document body "+marker
		firstText[url] = text
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], url, text, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	c.RunUntilIdle(8)
	checkStatsRecount(t, c, firstText)

	scope := make([]netsim.NodeID, 0, len(c.Peers))
	for _, p := range c.Peers {
		scope = append(scope, p.Addr())
	}
	// The storm: 50% of the peers crash, and the survivors' links turn
	// lossy for two rounds (churn in the wild is departures plus the
	// congestion they cause). The crash alone cannot blind the index —
	// K=8 replication plus retry and lookup widening keep every record
	// reachable with half the swarm gone — and which lossy draws hit a
	// read depends on every message sent before it, so the loss alone
	// makes round 0's dip a matter of luck. What makes it certain is a
	// partition for the lossy episode: take the first marker whose shard
	// pointer the round-0 frontend's bee does not hold itself, and cut
	// every node that does hold it off from the rest, so the markers on
	// that shard cannot be found whatever the draws. The maintenance
	// loops then rebuild full replication, and the final rounds must be
	// back at 100%.
	blind := make(map[netsim.NodeID]int)
	for _, m := range markers {
		key := pointerKey(index.ShardOf(m, cfg.NumShards))
		if _, own := c.Bees[0].Peer.DHT().Local(key); own {
			continue
		}
		for _, n := range dhtNodes(c) {
			if _, ok := n.Local(key); ok {
				blind[n.Self().Addr] = 1
			}
		}
		break
	}
	if len(blind) == 0 {
		t.Fatal("fixture: no marker's pointer can be cut off from the round-0 frontend")
	}
	plan := &netsim.FaultPlan{
		Seed:  cfg.Seed,
		Scope: scope,
		Events: []netsim.FaultEvent{
			{At: 0, Kind: netsim.FaultCrash, Fraction: 0.5},
			{At: 0, Kind: netsim.FaultDropRate, Rate: 0.87},
			{At: 0, Kind: netsim.FaultPartition, Groups: blind},
			{At: 3 * BlockInterval, Kind: netsim.FaultDropRate, Rate: 0},
			{At: 3 * BlockInterval, Kind: netsim.FaultHeal},
		},
	}
	c.SetFaultPlan(plan)

	var sig strings.Builder
	for round := 0; round < soakRounds; round++ {
		c.Seal() // round 0: the storm fires here
		// Measure through a fresh, cold frontend on a live bee so each
		// round's completeness reflects DHT state, not cache residue.
		fe := NewFrontend(c, c.Bees[round%len(c.Bees)].Peer)
		hits, degraded := 0, 0
		for _, m := range markers {
			resp, err := fe.Search(m, 5)
			if err == nil && len(resp.Results) > 0 {
				hits++
			}
			if err == nil && resp.Degraded != nil {
				degraded++
			}
		}
		fmt.Fprintf(&sig, "round=%d hits=%d/%d degraded=%d crashed=%d\n",
			round, hits, len(markers), degraded, len(plan.CrashedNodes()))
		c.RunMaintenance()
		// Nothing the storm does to the DHT can move the statistics.
		checkStatsRecount(t, c, firstText)
		if st := c.QB.IndexStats(); st.Docs != len(markers) {
			t.Fatalf("round %d: %d docs on chain, %d pages indexed", round, st.Docs, len(markers))
		}
	}
	rs := c.RepairStats()
	fmt.Fprintf(&sig, "repair runs=%d probed=%d republished=%d reseeded=%d lost=%d reprovided=%d msgs=%d\n",
		rs.Runs, rs.ProbedKeys, rs.Republished, rs.Reseeded, rs.SegmentsLost, rs.Reprovided, rs.Cost.Msgs)
	return sig.String()
}

// TestChurnSoak is the tentpole proof: a scripted storm kills 50% of
// the peers mid-round; completeness degrades, the maintenance loops
// run, and completeness returns to 100% of the markers within a bounded
// number of rounds — and the whole trajectory is byte-identical across
// reruns (the CI -race job runs this with -count=2).
func TestChurnSoak(t *testing.T) {
	sig := runChurnSoak(t)
	t.Logf("soak signature:\n%s", sig)

	var hits []int
	var repaired bool
	for _, line := range strings.Split(strings.TrimSpace(sig), "\n") {
		var round, h, n, deg, crashed int
		if _, err := fmt.Sscanf(line, "round=%d hits=%d/%d degraded=%d crashed=%d",
			&round, &h, &n, &deg, &crashed); err == nil {
			hits = append(hits, h)
			if crashed != 12 {
				t.Errorf("round %d: crashed = %d, want 12 (50%% of 24)", round, crashed)
			}
			continue
		}
		var runs, probed, repub, reseed, lost, reprov, msgs int
		if _, err := fmt.Sscanf(line, "repair runs=%d probed=%d republished=%d reseeded=%d lost=%d reprovided=%d msgs=%d",
			&runs, &probed, &repub, &reseed, &lost, &reprov, &msgs); err == nil {
			if runs != soakRounds {
				t.Errorf("maintenance runs = %d, want %d", runs, soakRounds)
			}
			if repub+reseed == 0 {
				t.Error("maintenance repaired nothing (republished+reseeded == 0)")
			}
			if lost != 0 {
				t.Errorf("segments lost = %d, want 0 (replicas should survive a 50%% storm)", lost)
			}
			if msgs == 0 {
				t.Error("repair traffic = 0 msgs")
			}
			repaired = true
		}
	}
	if len(hits) != soakRounds || !repaired {
		t.Fatalf("malformed signature:\n%s", sig)
	}
	if hits[0] == 10 {
		t.Error("storm did not degrade completeness in round 0")
	}
	if last := hits[len(hits)-1]; last != 10 {
		t.Errorf("completeness not restored: final round hits = %d/10", last)
	}

	// Determinism: the same scripted storm must produce the same
	// trajectory, byte for byte.
	if sig2 := runChurnSoak(t); sig2 != sig {
		t.Fatalf("soak not deterministic:\n--- run 1:\n%s--- run 2:\n%s", sig, sig2)
	}
}

// TestDegradedReadsPartialAnswer exercises graceful degradation
// directly: with most peers partitioned away, a multi-shard OR query
// loses some wave legs but not all, and returns a partial answer
// carrying the typed warning instead of ErrShardUnavailable. Without
// DegradedReads the same wave must fail the old way — pinning that the
// option gates the behavior.
func TestDegradedReadsPartialAnswer(t *testing.T) {
	build := func(degraded bool) (*Cluster, []string) {
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.NumPeers = 24
		cfg.NumBees = 3
		cfg.DegradedReads = degraded
		c := NewCluster(cfg)
		alice := c.NewAccount("alice", 10_000)
		c.Seal()
		var markers []string
		for i := 0; i < 10; i++ {
			m := fmt.Sprintf("degmarker%02d", i)
			markers = append(markers, m)
			if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://deg/%d", i),
				"degraded marker body "+m, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Seal()
		c.RunUntilIdle(8)
		// Cut off the whole peer swarm and every other bee, leaving the
		// frontend's own bee alone: shards whose records kept a copy on
		// it (it wrote them, or is among their closest) still load,
		// shards whose copies are all stranded far-side fail their wave
		// leg (fatal ErrPartitioned, no retries) — a genuinely mixed wave.
		groups := make(map[netsim.NodeID]int)
		for _, p := range c.Peers {
			groups[p.Addr()] = 1
		}
		for _, b := range c.Bees[1:] {
			groups[b.Peer.Addr()] = 1
		}
		c.Net.SetPartition(groups)
		return c, markers
	}

	c, markers := build(true)
	fe := NewFrontend(c, c.Bees[0].Peer)
	q := Query{Raw: strings.Join(markers, " "), Mode: PlanAny, Limit: 10, Explain: true}
	resp, err := fe.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("degraded query failed outright: %v", err)
	}
	d := resp.Degraded
	if d == nil {
		t.Fatal("no Degraded warning on a partially-failed wave")
	}
	if len(d.FailedShards) == 0 || d.Completeness <= 0 || d.Completeness >= 1 {
		t.Fatalf("malformed Degraded: %+v", d)
	}
	if d.Cause == "" {
		t.Fatal("Degraded.Cause empty")
	}
	if resp.Explain == nil {
		t.Fatal("Explain requested but missing on degraded answer")
	}
	if resp.Explain.Completeness != d.Completeness {
		t.Fatalf("Explain completeness %v != response %v", resp.Explain.Completeness, d.Completeness)
	}
	if len(resp.Explain.DegradedShards) != len(d.FailedShards) {
		t.Fatalf("Explain degraded shards %v != %v", resp.Explain.DegradedShards, d.FailedShards)
	}
	if len(resp.Results) == 0 {
		t.Fatal("degraded answer carried no results from the loaded shards")
	}

	// Same wave, option off: the old all-or-nothing contract.
	c2, markers2 := build(false)
	fe2 := NewFrontend(c2, c2.Bees[0].Peer)
	resp2, err := fe2.ExecuteCtx(context.Background(), Query{Raw: strings.Join(markers2, " "), Mode: PlanAny, Limit: 10})
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("without DegradedReads: err = %v, want ErrShardUnavailable", err)
	}
	if resp2.Degraded != nil {
		t.Fatal("Degraded set on the non-degraded failure path")
	}
}

// TestMaintenanceRoundHook verifies Config.Maintenance wires the repair
// pass into the round engine, and that a healthy cluster's passes probe
// but do not republish.
func TestMaintenanceRoundHook(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Maintenance = true
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	if _, err := c.Publish(alice, c.Peers[0], "dweb://m/1", "maintenance hook body", nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	rounds := c.RunUntilIdle(8)
	rs := c.RepairStats()
	if rs.Runs != rounds {
		t.Fatalf("repair runs = %d, want one per round (%d)", rs.Runs, rounds)
	}
	if rs.ProbedKeys == 0 {
		t.Fatal("maintenance probed nothing")
	}
	if rs.SegmentsLost != 0 {
		t.Fatalf("healthy cluster lost %d segments", rs.SegmentsLost)
	}
}

// TestReadinessDegradesAndRecovers drives /readyz's cluster-level
// summary through a storm and a heal.
func TestReadinessDegradesAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.NumPeers = 24
	cfg.NumBees = 3
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	for i := 0; i < 10; i++ {
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://r/%d", i),
			fmt.Sprintf("readiness body %02d stable", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	c.RunUntilIdle(8)

	if r := c.Readiness(); !r.Ready || r.ShardsOK != r.ShardsTotal {
		t.Fatalf("healthy cluster not ready: %+v", r)
	}
	failed := c.FailPeers(0.5)
	// Maintenance restores full replication; readiness follows.
	for i := 0; i < soakRounds; i++ {
		c.RunMaintenance()
	}
	if r := c.Readiness(); !r.Ready {
		t.Fatalf("cluster not ready after %d maintenance rounds: %+v", soakRounds, r)
	}
	c.HealPeers(failed)
	if r := c.Readiness(); !r.Ready {
		t.Fatalf("cluster not ready after heal: %+v", r)
	}
}

// TestReadinessWrittenShardUnreachable: a pointer read that reaches no
// replica fails with dht.ErrNotFound, the same error as a key never
// written. Only a shard this cluster never materialized may count as
// healthy on it; a written one whose every replica is unreachable is
// failed — by Readiness, and by a query on the one live bee, which must
// not serve it as an empty shard.
func TestReadinessWrittenShardUnreachable(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	if r := c.Readiness(); !r.Ready || r.ShardsOK != cfg.NumShards {
		t.Fatalf("fresh cluster not ready: %+v", r)
	}
	owner := c.NewAccount("writer", 10_000_000)
	c.Seal()
	for round, pages := range corpusBatches(cfg.Seed, 2, 16) {
		if rr, err := c.IndexBatch(owner, pages); err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
	}
	// termOn returns a query term that lives on shard.
	termOn := func(shard int) string {
		for i := 0; ; i++ {
			if term := fmt.Sprintf("probe%c%c", 'a'+i%26, 'a'+i/26); index.ShardOf(term, cfg.NumShards) == shard {
				return term
			}
		}
	}
	d := c.maintenanceNode()
	var fe *Frontend
	for _, b := range c.Bees {
		if b.Peer.DHT() == d {
			fe = NewFrontend(c, b.Peer)
		}
	}
	// Warm every shard's chain on the frontend while the swarm is up, so a
	// shard whose pointer stays readable still loads once it is down.
	var all []string
	for s := 0; s < cfg.NumShards; s++ {
		all = append(all, termOn(s))
	}
	if _, err := fe.Search(strings.Join(all, " "), 5); err != nil {
		t.Fatal(err)
	}
	for _, n := range dhtNodes(c) {
		if n != d {
			c.Net.SetDown(n.Self().Addr, true)
		}
	}
	var unreachable, reachable []int
	for s := 0; s < cfg.NumShards; s++ {
		if _, _, _, err := d.GetCtx(context.Background(), pointerKey(s)); err != nil {
			if !errors.Is(err, dht.ErrNotFound) {
				t.Fatalf("shard %d: %v", s, err)
			}
			unreachable = append(unreachable, s)
		} else {
			reachable = append(reachable, s)
		}
	}
	if len(unreachable) == 0 || len(reachable) == 0 {
		t.Fatalf("fixture: unreachable shards %v", unreachable)
	}
	r := c.Readiness()
	if r.Ready || fmt.Sprint(r.Failed) != fmt.Sprint(unreachable) || r.ShardsOK != cfg.NumShards-len(unreachable) {
		t.Fatalf("readiness %+v, but shards %v are unreachable", r, unreachable)
	}

	lost, kept := termOn(unreachable[0]), termOn(reachable[0])
	if resp, err := fe.Search(lost, 5); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("query on unreachable shard %d: %d results, degraded %+v, err=%v; want ErrShardUnavailable",
			unreachable[0], len(resp.Results), resp.Degraded, err)
	}
	c.cfg.DegradedReads = true
	resp, err := fe.Search(lost+" "+kept, 5)
	if err != nil || resp.Degraded == nil || fmt.Sprint(resp.Degraded.FailedShards) != fmt.Sprint(unreachable[:1]) {
		t.Fatalf("degraded query over shards %d and %d: degraded %+v, err=%v; want shard %d failed",
			unreachable[0], reachable[0], resp.Degraded, err, unreachable[0])
	}
}

// TestFaultPlanAdvancesOnSeal pins the Seal → FaultPlan wiring: events
// fire at block boundaries using the cluster clock, relative to when
// the plan was attached.
func TestFaultPlanAdvancesOnSeal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 8
	c := NewCluster(cfg)
	victim := c.Peers[3].Addr()
	c.SetFaultPlan(&netsim.FaultPlan{Events: []netsim.FaultEvent{
		{At: 2 * BlockInterval, Kind: netsim.FaultCrash, Nodes: []netsim.NodeID{victim}},
		{At: 3 * BlockInterval, Kind: netsim.FaultRecover},
	}})
	c.Seal()
	if c.Net.IsDown(victim) {
		t.Fatal("crash fired a block early")
	}
	c.Seal()
	if !c.Net.IsDown(victim) {
		t.Fatal("crash did not fire at its block")
	}
	c.Seal()
	if c.Net.IsDown(victim) {
		t.Fatal("recover did not fire")
	}
	if !c.FaultPlan().Done() {
		t.Fatal("plan not done")
	}
}
