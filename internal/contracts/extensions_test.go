package contracts

import (
	"fmt"
	"testing"

	"repro/internal/chain"
)

func TestStakeWeightedQuorumFavorsStake(t *testing.T) {
	alice := chain.NewNamedAccount(1, "alice")
	whale := chain.NewNamedAccount(1, "whale")
	minnows := make([]*chain.Account, 4)
	for i := range minnows {
		minnows[i] = chain.NewNamedAccount(1, fmt.Sprintf("minnow-%d", i))
	}
	cfg := DefaultConfig()
	cfg.Quorum = 1
	cfg.StakeWeightedQuorum = true
	h := newHarness(t, cfg, append([]*chain.Account{alice, whale}, minnows...)...)

	// Whale stakes 10x each minnow.
	h.call(whale, MethodRegisterWorker, nil, 5_000)
	for _, m := range minnows {
		h.call(m, MethodRegisterWorker, nil, 500)
	}
	h.seal()

	// Many tasks: the whale should win far more than 1/5 of seats.
	const tasks = 40
	whaleSeats := 0
	for i := 0; i < tasks; i++ {
		url := fmt.Sprintf("dweb://sw/%d", i)
		h.publish(alice, PublishParams{URL: url, CID: "c"})
		h.seal()
		task, ok := h.qb.TaskInfo(fmt.Sprintf("idx:%s:1", url))
		if !ok {
			t.Fatal("task missing")
		}
		if len(task.Assignees) == 1 && task.Assignees[0] == whale.Address() {
			whaleSeats++
		}
	}
	// Expected share: 5000/7000 ≈ 71%; uniform would be 20%. Require a
	// clear majority to keep the test robust.
	if whaleSeats < tasks/2 {
		t.Fatalf("whale won %d/%d seats; stake weighting ineffective", whaleSeats, tasks)
	}
}

func TestStakeWeightedSybilGainsNothing(t *testing.T) {
	// Splitting 5000 stake across 10 Sybils wins the same expected seats
	// as one 5000-stake identity: seats are proportional to total stake.
	alice := chain.NewNamedAccount(2, "alice")
	honest := chain.NewNamedAccount(2, "honest")
	sybils := make([]*chain.Account, 10)
	for i := range sybils {
		sybils[i] = chain.NewNamedAccount(2, fmt.Sprintf("sybil-%d", i))
	}
	cfg := DefaultConfig()
	cfg.Quorum = 1
	cfg.StakeWeightedQuorum = true
	h := newHarness(t, cfg, append([]*chain.Account{alice, honest}, sybils...)...)

	h.call(honest, MethodRegisterWorker, nil, 5_000)
	for _, s := range sybils {
		h.call(s, MethodRegisterWorker, nil, 500) // total 5000 across Sybils
	}
	h.seal()

	const tasks = 60
	sybilSeats := 0
	sybilAddrs := map[chain.Address]bool{}
	for _, s := range sybils {
		sybilAddrs[s.Address()] = true
	}
	for i := 0; i < tasks; i++ {
		url := fmt.Sprintf("dweb://syb/%d", i)
		h.publish(alice, PublishParams{URL: url, CID: "c"})
		h.seal()
		task, _ := h.qb.TaskInfo(fmt.Sprintf("idx:%s:1", url))
		if len(task.Assignees) == 1 && sybilAddrs[task.Assignees[0]] {
			sybilSeats++
		}
	}
	// Expected ~50%; allow wide slack but catch "Sybils dominate".
	if sybilSeats < tasks/4 || sybilSeats > 3*tasks/4 {
		t.Fatalf("sybil seats = %d/%d, want ≈ stake share (half)", sybilSeats, tasks)
	}
}

func TestImpressionCharging(t *testing.T) {
	adv := chain.NewNamedAccount(3, "adv")
	alice := chain.NewNamedAccount(3, "alice")
	h := newHarness(t, DefaultConfig(), adv, alice)
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(adv, MethodRegisterAd, RegisterAdParams{
		Keywords: []string{"k"}, BidPerClick: 100, BidPerImpression: 10,
	}, 1000)
	h.seal()

	aliceBefore := h.chain.State().Balance(alice.Address())
	imp := h.call(alice, MethodImpression, ImpressionParams{AdID: 1, URL: "dweb://p"}, 0)
	h.seal()
	h.mustOK(imp)

	// 10 per impression, 60% creator share → 6.
	if got := h.chain.State().Balance(alice.Address()); got != aliceBefore+6 {
		t.Fatalf("creator impression cut = %d, want +6", got-aliceBefore)
	}
	ad, _ := h.qb.AdInfo(1)
	if ad.Impressions != 1 || ad.Budget != 990 {
		t.Fatalf("ad = %+v", ad)
	}
	h.checkEscrowInvariant()
}

func TestImpressionOnCPCOnlyAdFails(t *testing.T) {
	adv := chain.NewNamedAccount(4, "adv")
	alice := chain.NewNamedAccount(4, "alice")
	h := newHarness(t, DefaultConfig(), adv, alice)
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(adv, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerClick: 50}, 500)
	h.seal()
	tx := h.call(alice, MethodImpression, ImpressionParams{AdID: 1, URL: "dweb://p"}, 0)
	h.seal()
	h.mustFail(tx)
}

func TestClickOnCPMOnlyAdFails(t *testing.T) {
	adv := chain.NewNamedAccount(5, "adv")
	alice := chain.NewNamedAccount(5, "alice")
	h := newHarness(t, DefaultConfig(), adv, alice)
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(adv, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerImpression: 5}, 500)
	h.seal()
	tx := h.call(alice, MethodClick, ClickParams{AdID: 1, URL: "dweb://p"}, 0)
	h.seal()
	h.mustFail(tx)
}

func TestCPMAdExhaustion(t *testing.T) {
	adv := chain.NewNamedAccount(6, "adv")
	alice := chain.NewNamedAccount(6, "alice")
	h := newHarness(t, DefaultConfig(), adv, alice)
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(adv, MethodRegisterAd, RegisterAdParams{Keywords: []string{"k"}, BidPerImpression: 100}, 250)
	h.seal()

	// Two impressions fit (250 → 150 → 50 < 100).
	for i := 0; i < 2; i++ {
		tx := h.call(alice, MethodImpression, ImpressionParams{AdID: 1, URL: "dweb://p"}, 0)
		h.seal()
		h.mustOK(tx)
	}
	third := h.call(alice, MethodImpression, ImpressionParams{AdID: 1, URL: "dweb://p"}, 0)
	h.seal()
	h.mustFail(third)
	ad, _ := h.qb.AdInfo(1)
	if ad.Active {
		t.Fatal("ad should be exhausted")
	}
	h.checkEscrowInvariant()
}

func TestMixedCampaignConservation(t *testing.T) {
	adv := chain.NewNamedAccount(7, "adv")
	alice := chain.NewNamedAccount(7, "alice")
	ws := workers(3)
	h := newHarness(t, DefaultConfig(), append([]*chain.Account{adv, alice}, ws...)...)
	for _, w := range ws {
		h.call(w, MethodRegisterWorker, nil, 200)
	}
	h.publish(alice, PublishParams{URL: "dweb://p", CID: "c"})
	h.call(adv, MethodRegisterAd, RegisterAdParams{
		Keywords: []string{"k"}, BidPerClick: 70, BidPerImpression: 7,
	}, 700)
	h.seal()

	for i := 0; i < 5; i++ {
		h.call(alice, MethodImpression, ImpressionParams{AdID: 1, URL: "dweb://p"}, 0)
		h.seal()
	}
	for i := 0; i < 3; i++ {
		h.call(alice, MethodClick, ClickParams{AdID: 1, URL: "dweb://p"}, 0)
		h.seal()
	}
	st := h.chain.State()
	if st.SumBalances() != st.Supply() {
		t.Fatal("conservation violated")
	}
	h.checkEscrowInvariant()
	ad, _ := h.qb.AdInfo(1)
	if ad.Impressions != 5 || ad.Clicks != 3 {
		t.Fatalf("ad = %+v", ad)
	}
}

func TestMinPositiveAndMaxU64(t *testing.T) {
	if minPositive(0, 5) != 5 || minPositive(5, 0) != 5 || minPositive(3, 5) != 3 || minPositive(5, 3) != 3 {
		t.Fatal("minPositive wrong")
	}
	if maxU64(2, 9) != 9 || maxU64(9, 2) != 9 {
		t.Fatal("maxU64 wrong")
	}
}
