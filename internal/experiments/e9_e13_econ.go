package experiments

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/baseline"
	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Inverted-list intersection kernels (frontend)",
		Claim: "composing the search results by intersecting the matched inverted lists",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Incentive fairness: honey vs popularity",
		Claim: "we need to reward those whose websites are popular … a sensible scheme is needed",
		Run:   runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Collusion attack vs quorum defense",
		Claim: "an attack from colluded worker bees that aim at manipulating QueenBee's indexes or page ranking",
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Scraper-site attack vs duplicate defense",
		Claim: "scrapper site attack may exist that tries to mirror popular websites for QueenBee's honey",
		Run:   runE12,
	})
	register(Experiment{
		ID:    "E13",
		Title: "Ad marketplace: pay-per-click and revenue sharing",
		Claim: "advertisers … pay by the number of clicks; the ad revenue is shared among the content creators and worker bees",
		Run:   runE13,
	})
}

// runE9 compares linear-merge and galloping intersection over skewed
// lists (the ablation A1). Times are wall-clock nanoseconds per op.
func runE9(seed uint64) []*metrics.Table {
	rng := xrand.New(seed)
	t := metrics.NewTable("E9 — intersection kernels",
		"|short|", "|long|", "result", "merge ns/op", "gallop ns/op", "speedup")

	mk := func(n, stride int) []index.DocID {
		out := make([]index.DocID, n)
		v := index.DocID(0)
		for i := range out {
			v += index.DocID(1 + rng.Intn(stride))
			out[i] = v
		}
		return out
	}
	for _, shape := range []struct{ short, long int }{
		{100, 100},
		{100, 10_000},
		{100, 100_000},
		{1000, 100_000},
		{10_000, 100_000},
	} {
		// Both lists span the same DocID range (as real postings for
		// co-occurring terms do), so the skew ratio is the variable.
		long := mk(shape.long, 2)
		span := int(long[len(long)-1])
		short := mk(shape.short, span/shape.short)
		lists := [][]index.DocID{short, long}

		mergeNS := timePerOp(func() { index.IntersectMerge(lists) })
		gallopNS := timePerOp(func() { index.IntersectGallop(lists) })
		result := len(index.IntersectMerge(lists))
		speedup := 0.0
		if gallopNS > 0 {
			speedup = float64(mergeNS) / float64(gallopNS)
		}
		t.AddRow(shape.short, shape.long, result, mergeNS, gallopNS, speedup)
	}
	return []*metrics.Table{t}
}

// timePerOp measures one function's wall time with enough repetitions to
// be stable at table granularity.
func timePerOp(f func()) int64 {
	const minRounds = 5
	//detlint:ignore wallclock host-CPU microbenchmark; measures real compute, no simulated state depends on it
	start := time.Now()
	var elapsed time.Duration
	rounds := 0
	for elapsed < 2*time.Millisecond || rounds < minRounds {
		f()
		rounds++
		//detlint:ignore wallclock host-CPU microbenchmark; measures real compute, no simulated state depends on it
		elapsed = time.Since(start)
	}
	return elapsed.Nanoseconds() / int64(rounds)
}

// runE10: a skewed-popularity corpus; after rank + popularity payouts +
// an ad click stream, is honey correlated with popularity and is the
// distribution meaningfully concentrated (rewarding popularity) without
// starving the tail?
func runE10(seed uint64) []*metrics.Table {
	const publishers = 10
	const docs = 60
	names := make([]string, publishers)
	for i := range names {
		names[i] = fmt.Sprintf("creator-%02d", i)
	}
	c, owners := newCluster(seed, 16, 4, func(cfg *core.Config) {
		cfg.Contract.PopularityThreshold = 0.005
	}, 10_000, names...)

	// Preferential-attachment links: earlier pages get more in-links.
	rng := xrand.New(seed)
	weights := make([]float64, 0, docs)
	pages := make([]core.BatchPage, docs)
	for i := range pages {
		var links []string
		for j := 0; j < 3 && i > 0; j++ {
			links = append(links, urlOf(rng.Weighted(weights)))
		}
		pages[i] = core.BatchPage{URL: urlOf(i), Text: fmt.Sprintf("article %04d with body text about subject %d", i, i%7), Links: links}
		weights = append(weights, 1)
		for _, l := range links {
			var idx int
			fmt.Sscanf(l, "dweb://site/%04d", &idx)
			weights[idx] += 2
		}
	}
	publishPages(c, owners, pages, 20, 4, 8)

	epoch := c.StartRankEpoch(4)
	c.RunUntilIdle(8)
	c.PayPopularity(epoch)

	// Advertiser + click stream on top-ranked pages.
	adv := c.NewAccount("advertiser", 1_000_000)
	clicker := c.NewAccount("clicker", 1_000)
	c.Seal()
	c.SubmitCall(adv, contracts.MethodRegisterAd, contracts.RegisterAdParams{
		Keywords: []string{"article"}, BidPerClick: 20,
	}, 10_000)
	c.Seal()
	fe := core.NewFrontend(c, c.Peers[1])
	top := fe.TopRankedPages(docs)
	ranks := c.QB.PageRanks()
	zipf := xrand.NewZipf(rng.Split(), 1.1, len(top))
	for i := 0; i < 100; i++ {
		url := top[zipf.Next()]
		c.SubmitCall(clicker, contracts.MethodClick, contracts.ClickParams{AdID: 1, URL: url}, 0)
		if i%10 == 9 {
			c.Seal()
		}
	}
	c.Seal()

	// Honey earned per page owner vs total rank of their pages.
	honey := make([]float64, publishers)
	pop := make([]float64, publishers)
	for i, o := range owners {
		honey[i] = float64(c.Chain.State().Balance(o.Address())) - 10_000
	}
	for i := 0; i < docs; i++ {
		pop[i%publishers] += ranks[urlOf(i)]
	}

	t := metrics.NewTable("E10 — incentive fairness", "metric", "value")
	t.AddRow("creators", publishers)
	t.AddRow("pages", docs)
	t.AddRow("honey Gini across creators", metrics.Gini(honey))
	t.AddRow("Spearman(honey, popularity)", metrics.Spearman(honey, pop))
	t.AddRow("Pearson(honey, popularity)", metrics.Pearson(honey, pop))
	st := c.Chain.State()
	t.AddRow("honey conservation", boolStr(st.SumBalances() == st.Supply()))

	// Threshold sweep: how many pages would qualify at each threshold.
	t2 := metrics.NewTable("E10b — popularity threshold sweep",
		"threshold", "pages above", "fraction")
	for _, thr := range []float64{0.001, 0.005, 0.01, 0.02, 0.05} {
		above := 0
		for _, r := range ranks {
			if r >= thr {
				above++
			}
		}
		t2.AddRow(thr, above, float64(above)/float64(len(ranks)))
	}
	return []*metrics.Table{t, t2}
}

// runE11: the collusion sweep (fraction × quorum), using the attack
// orchestrator, plus the YaCy-style unverified baseline for contrast.
func runE11(seed uint64) []*metrics.Table {
	t := metrics.NewTable("E11 — collusion attack vs quorum",
		"colluders/5 bees", "quorum", "tasks", "corrupted", "corruption %", "colluder slashes", "stake burned")
	for _, quorum := range []int{1, 3, 5} {
		for _, colluders := range []int{0, 1, 2, 3} {
			r := attack.RunCollusion(seed, 5, colluders, quorum, 12)
			t.AddRow(colluders, quorum, r.Tasks, r.Corrupted,
				100*r.CorruptionRate(), r.ColluderSlash, r.ColluderStake)
		}
	}

	// Baseline: the unverified P2P keyword index the paper contrasts
	// with ("existing P2P search engines … without an incentive scheme
	// or a security incentive"). One attacker, zero stake, poisons every
	// term it targets.
	t2 := metrics.NewTable("E11b — unverified P2P baseline (index poisoning)",
		"terms attacked", "poisoned", "attacker stake", "publish msgs", "attacker msgs", "probe msgs")
	{
		_, peers := buildStoreSwarm(seed, 16, "peer", store.PeerConfig{})
		u := baseline.NewUnverifiedP2P(8)
		pub, err := u.Publish(peers[0].DHT(), "dweb://legit", "trusted reliable verified facts knowledge")
		if err != nil {
			panic(fmt.Sprintf("E11b publish: %v", err))
		}
		var attack, probe netsim.Cost
		attacked, poisoned := 0, 0
		for _, term := range []string{"trusted", "reliable", "verified", "facts", "knowledge"} {
			attacked++
			cost, err := u.Poison(peers[7].DHT(), term, "dweb://spam")
			attack = attack.Seq(cost)
			if err != nil {
				continue
			}
			urls, cost, _ := u.Search(peers[3].DHT(), term)
			probe = probe.Seq(cost)
			for _, url := range urls {
				if url == "dweb://spam" {
					poisoned++
					break
				}
			}
		}
		t2.AddRow(attacked, poisoned, 0, pub.Msgs, attack.Msgs, probe.Msgs)
	}

	// Sybil resistance: under stake-weighted assignment, splitting one
	// attacker stake across many identities captures the same seat share.
	t3 := metrics.NewTable("E11c — Sybil seat capture under stake weighting",
		"identities", "stake each", "total stake", "seat share %")
	for _, shape := range []struct {
		ids   int
		stake uint64
	}{{1, 5000}, {5, 1000}, {10, 500}} {
		share := sybilSeatShare(seed, shape.ids, shape.stake)
		t3.AddRow(shape.ids, shape.stake, uint64(shape.ids)*shape.stake, 100*share)
	}
	return []*metrics.Table{t, t2, t3}
}

// sybilSeatShare registers one honest 5000-stake worker plus `ids` Sybil
// workers of `stake` each on a bare chain with stake-weighted quorum 1,
// publishes 40 tasks, and returns the fraction of seats the Sybils
// captured. Seat share tracks total stake, not identity count.
func sybilSeatShare(seed uint64, ids int, stake uint64) float64 {
	clock := vclock.New(time.Time{})
	genesis := make(map[chain.Address]uint64)
	publisher := chain.NewNamedAccount(seed, "sybil-publisher")
	honest := chain.NewNamedAccount(seed, "sybil-honest")
	genesis[publisher.Address()] = 1_000_000
	genesis[honest.Address()] = 1_000_000
	sybilAccts := make([]*chain.Account, ids)
	for i := range sybilAccts {
		sybilAccts[i] = chain.NewNamedAccount(seed, fmt.Sprintf("sybil-%02d", i))
		genesis[sybilAccts[i].Address()] = 1_000_000
	}
	ch := chain.New(clock, genesis)
	ccfg := contracts.DefaultConfig()
	ccfg.Quorum = 1
	ccfg.StakeWeightedQuorum = true
	qb := contracts.New(ccfg)
	ch.RegisterContract(qb, true)

	nonces := map[chain.Address]uint64{}
	call := func(from *chain.Account, method string, params any, value uint64) {
		n := nonces[from.Address()]
		nonces[from.Address()]++
		ch.Submit(chain.NewCall(from, n, contracts.ContractName, method, params, value))
	}
	call(honest, contracts.MethodRegisterWorker, nil, 5000)
	for _, s := range sybilAccts {
		call(s, contracts.MethodRegisterWorker, nil, stake)
	}
	clock.Advance(time.Second)
	ch.Seal()

	sybilAddrs := map[chain.Address]bool{}
	for _, s := range sybilAccts {
		sybilAddrs[s.Address()] = true
	}
	const tasks = 40
	captured := 0
	for i := 0; i < tasks; i++ {
		url := fmt.Sprintf("dweb://sybil/%d", i)
		call(publisher, contracts.MethodPublishBatch, contracts.PublishBatchParams{
			Pages: []contracts.PublishParams{{URL: url, CID: "c"}},
		}, 0)
		clock.Advance(time.Second)
		ch.Seal()
		task, ok := qb.TaskInfo(fmt.Sprintf("idx:%s:1", url))
		if ok && len(task.Assignees) == 1 && sybilAddrs[task.Assignees[0]] {
			captured++
		}
	}
	return float64(captured) / tasks
}

// runE12: scraper economics with the defense off and on.
func runE12(seed uint64) []*metrics.Table {
	t := metrics.NewTable("E12 — scraper-site attack",
		"defense", "original honey", "scraper honey", "original rank", "mirror rank", "false demotions")
	for _, defense := range []bool{false, true} {
		r := attack.RunScraper(seed, defense)
		name := "off"
		if defense {
			name = "MinHash dedup"
		}
		t.AddRow(name, r.OriginalHoney, r.ScraperHoney, r.OriginalRank, r.ScraperRank, r.FalseDemotions)
	}
	return []*metrics.Table{t}
}

// runE13: a full ad campaign: escrow, clicks, exhaustion, and the
// creator/worker split, with exact conservation accounting.
func runE13(seed uint64) []*metrics.Table {
	c, accts := newCluster(seed, 10, 4, nil, 1_000, "creator")
	creator := accts[0]
	adv := c.NewAccount("advertiser", 100_000)
	user := c.NewAccount("user", 100)
	publishPages(c, accts, []core.BatchPage{{URL: "dweb://content", Text: "premium searchable content about products"}}, 0, 0, 5)

	const bid = 100
	const budget = 1000
	c.SubmitCall(adv, contracts.MethodRegisterAd, contracts.RegisterAdParams{
		Keywords: []string{"product"}, BidPerClick: bid,
	}, budget)
	c.Seal()

	creatorBefore := c.Chain.State().Balance(creator.Address())
	beesBefore := uint64(0)
	for _, b := range c.Bees {
		beesBefore += c.Chain.State().Balance(b.Account.Address())
	}

	clicks, failed := 0, 0
	for i := 0; i < 15; i++ { // more clicks than the budget affords
		tx := c.SubmitCall(user, contracts.MethodClick, contracts.ClickParams{AdID: 1, URL: "dweb://content"}, 0)
		c.Seal()
		if r := c.Chain.Receipt(tx.Hash()); r != nil && r.OK {
			clicks++
		} else {
			failed++
		}
	}

	creatorEarned := c.Chain.State().Balance(creator.Address()) - creatorBefore
	beesAfter := uint64(0)
	for _, b := range c.Bees {
		beesAfter += c.Chain.State().Balance(b.Account.Address())
	}
	ad, _ := c.QB.AdInfo(1)
	breakdown := c.QB.Escrow()
	st := c.Chain.State()

	t := metrics.NewTable("E13 — pay-per-click economics", "metric", "value")
	t.AddRow("bid per click", bid)
	t.AddRow("escrowed budget", budget)
	t.AddRow("paid clicks", clicks)
	t.AddRow("rejected clicks (budget exhausted)", failed)
	t.AddRow("creator revenue", creatorEarned)
	t.AddRow("worker pool revenue", beesAfter-beesBefore)
	t.AddRow("remaining ad budget", ad.Budget)
	t.AddRow("escrow dust", breakdown.Dust)
	if clicks > 0 {
		t.AddRow("creator share per click", creatorEarned/uint64(clicks))
	}
	t.AddRow("honey conservation", boolStr(st.SumBalances() == st.Supply()))
	return []*metrics.Table{t}
}
