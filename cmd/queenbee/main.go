// Command queenbee boots a simulated QueenBee deployment, publishes a
// demo corpus through the smart contract, lets the worker bees index and
// rank it, and serves a few queries — the whole Figure 1 flow in one run.
//
// Usage:
//
//	queenbee -peers 24 -bees 6 -docs 40 -query "decentralized search"
//	queenbee -query 'search OR retrieval -crawler site:dweb://doc-000' -explain
//
// The -query flag speaks the full structured query language (uppercase
// OR/AND, '-' exclusions, "quoted phrases", site: URL-prefix filters,
// parentheses — see docs/query-language.md); -explain prints the
// compiled execution plan with per-node candidate counts and simulated
// network cost.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	queenbee "repro"
	"repro/internal/corpus"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
		// -h: the flag set has printed the usage.
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command: flags from args, the report on out. Its
// output is a pure function of the flags (testdata/*.golden).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("queenbee", flag.ContinueOnError)
	peers := fs.Int("peers", 16, "DWeb devices in the swarm")
	bees := fs.Int("bees", 4, "worker bees")
	docs := fs.Int("docs", 30, "synthetic pages to publish")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	query := fs.String("query", "", "extra structured query to run (optional; supports OR/AND, -, quotes, site:)")
	explain := fs.Bool("explain", false, "print the execution plan for -query")
	if err := fs.Parse(args); err != nil {
		return err
	}

	engine := queenbee.New(
		queenbee.WithSeed(*seed),
		queenbee.WithPeers(*peers),
		queenbee.WithBees(*bees),
	)
	fmt.Fprintf(out, "QueenBee swarm up: %d peers, %d worker bees\n", *peers, *bees)

	creator := engine.NewAccount("creator", 100_000)
	advertiser := engine.NewAccount("advertiser", 100_000)
	user := engine.NewAccount("user", 1_000)

	ccfg := corpus.DefaultConfig()
	ccfg.Seed = *seed
	ccfg.NumDocs = *docs
	corp := corpus.Generate(ccfg)
	fmt.Fprintf(out, "publishing %d pages via the smart contract (no crawling)…\n", *docs)
	for _, d := range corp.Docs {
		if err := engine.Publish(creator, d.URL, d.Text, d.Links); err != nil {
			return fmt.Errorf("publish: %w", err)
		}
	}
	engine.RunUntilIdle()
	fmt.Fprintln(out, "worker bees finished indexing; computing page ranks…")
	epoch := engine.ComputeRanks(4)
	if err := engine.PayPopularityRewards(epoch); err != nil {
		fmt.Fprintln(out, "popularity rewards:", err)
	}

	if _, err := engine.RegisterAd(advertiser, []string{corp.Vocab(0)}, 10, 500); err != nil {
		return fmt.Errorf("register ad: %w", err)
	}

	for _, q := range corp.Queries(*seed, 3, 2) {
		results, ads, err := engine.Search(q.Text, 5)
		if err != nil {
			fmt.Fprintf(out, "query %q: %v\n", q.Text, err)
			continue
		}
		fmt.Fprintf(out, "\nquery %q → %d results\n", q.Text, len(results))
		for i, r := range results {
			fmt.Fprintf(out, "  %d. %-28s score=%.3f rank=%.4f\n", i+1, r.URL, r.Score, r.Rank)
		}
		for _, ad := range ads {
			fmt.Fprintf(out, "  [ad %d] keywords=%v bid=%d\n", ad.ID, ad.Keywords, ad.BidPerClick)
			if err := engine.Click(user, ad.ID, results[0].URL); err == nil {
				fmt.Fprintf(out, "  [ad %d] user clicked — creator and bees paid\n", ad.ID)
			}
		}
	}
	// The -query flag goes through the structured pipeline: boolean
	// operators, exclusions, site: filters, pagination, Explain.
	if *query != "" {
		b := engine.Query(*query).Page(1, 5)
		if *explain {
			b = b.Explain()
		}
		resp, err := b.Run()
		if err != nil {
			fmt.Fprintf(out, "\nstructured query %q: %v\n", *query, err)
		} else {
			fmt.Fprintf(out, "\nstructured query %q → %d of %d matches\n",
				*query, len(resp.Results), resp.Total)
			for i, r := range resp.Results {
				fmt.Fprintf(out, "  %d. %-28s score=%.3f rank=%.4f\n", i+1, r.URL, r.Score, r.Rank)
			}
			for _, ad := range resp.Ads {
				fmt.Fprintf(out, "  [ad %d] keywords=%v bid=%d\n", ad.ID, ad.Keywords, ad.BidPerClick)
			}
			if resp.Explain != nil {
				fmt.Fprint(out, resp.Explain.String())
			}
		}
	}

	s := engine.Stats()
	fmt.Fprintf(out, "\n--- deployment summary ---\n")
	fmt.Fprintf(out, "pages: %d   chain height: %d   honey supply: %d\n", s.Pages, s.Height, s.HoneySupply)
	fmt.Fprintf(out, "tasks: %d finalized, %d failed, %d open   active bees: %d\n",
		s.TasksFinalized, s.TasksFailed, s.TasksOpen, s.Workers)
	fmt.Fprintf(out, "creator balance: %d honey (started with 100000)\n", engine.Balance(creator))
	return nil
}
