// Adsmarket: QueenBee's decentralized advertising economy — advertisers
// escrow budgets in the smart contract, pay per click, and the revenue is
// split between content creators and the worker-bee pool, exactly as the
// paper proposes ("the ad revenue is shared among the content creators
// and worker bees").
package main

import (
	"fmt"
	"io"
	"os"

	queenbee "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole example, its report on out. The output is a pure
// function of the code (testdata/stdout.golden).
func run(out io.Writer) error {
	engine := queenbee.New(
		queenbee.WithSeed(11),
		queenbee.WithPeers(12),
		queenbee.WithBees(4),
	)

	creator := engine.NewAccount("creator", 1_000)
	nike := engine.NewAccount("shoe-brand", 50_000)
	cola := engine.NewAccount("drink-brand", 50_000)
	user := engine.NewAccount("searcher", 100)

	// The creator publishes review pages.
	pages := map[string]string{
		"dweb://reviews/runners":  "detailed review of marathon running shoes and trail runners",
		"dweb://reviews/hydrate":  "comparing sports drinks for marathon hydration strategy",
		"dweb://reviews/training": "marathon training schedules for beginners",
	}
	for url, text := range pages {
		if err := engine.Publish(creator, url, text, nil); err != nil {
			return err
		}
	}
	engine.RunUntilIdle()

	// Two advertisers bid on the "marathon" keyword; the higher bid is
	// displayed first.
	shoeAd, err := engine.RegisterAd(nike, []string{"marathon", "shoes"}, 50, 2_000)
	if err != nil {
		return err
	}
	drinkAd, err := engine.RegisterAd(cola, []string{"marathon", "drinks"}, 30, 1_500)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaigns open: shoe ad #%d (bid 50), drink ad #%d (bid 30)\n", shoeAd, drinkAd)

	results, ads, err := engine.Search("marathon training", 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nsearch 'marathon training': %d results, %d ads\n", len(results), len(ads))
	for _, ad := range ads {
		fmt.Fprintf(out, "  ad #%d keywords=%v bid=%d\n", ad.ID, ad.Keywords, ad.BidPerClick)
	}

	// The user clicks the top ad a few times on the top result page.
	creatorStart := engine.Balance(creator)
	for i := 0; i < 5; i++ {
		if err := engine.Click(user, ads[0].ID, results[0].URL); err != nil {
			fmt.Fprintln(out, "click rejected:", err)
			break
		}
	}
	fmt.Fprintf(out, "\nafter 5 clicks at bid %d:\n", ads[0].BidPerClick)
	fmt.Fprintf(out, "  creator earned      %d honey (60%% of each click)\n", engine.Balance(creator)-creatorStart)
	fmt.Fprintf(out, "  advertiser balance  %d honey\n", engine.Balance(nike))
	fmt.Fprintf(out, "  honey supply        %d (conserved by the contract)\n", engine.Stats().HoneySupply)
	return nil
}
