// Wikipedia: the paper's motivating deployment — a wiki snapshot hosted
// on the DWeb with QueenBee as its search engine. This example publishes
// a synthetic Wikipedia stand-in (Zipf vocabulary, preferential-
// attachment link graph), runs a distributed page-rank epoch, pays
// popularity rewards to the providers of well-linked articles, and
// answers queries blending BM25 with page rank.
package main

import (
	"fmt"
	"io"
	"os"

	queenbee "repro"
	"repro/internal/corpus"
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
		queenbee.WithSeed(7),
		queenbee.WithPeers(20),
		queenbee.WithBees(5),
	)

	// Ten independent editors publish the snapshot.
	editors := make([]*queenbee.Account, 10)
	for i := range editors {
		editors[i] = engine.NewAccount(fmt.Sprintf("editor-%02d", i), 10_000)
	}

	cfg := corpus.DefaultConfig()
	cfg.Seed = 7
	cfg.NumDocs = 80
	cfg.MeanDocLen = 80
	wiki := corpus.Generate(cfg)

	fmt.Fprintf(out, "publishing %d wiki articles…\n", len(wiki.Docs))
	for i, d := range wiki.Docs {
		if err := engine.Publish(editors[i%len(editors)], d.URL, d.Text, d.Links); err != nil {
			return err
		}
		if i%20 == 19 {
			engine.Run(2) // bees keep up while publishing continues
		}
	}
	engine.RunUntilIdle()
	s := engine.Stats()
	fmt.Fprintf(out, "indexed: %d articles, %d verified tasks\n", s.Pages, s.TasksFinalized)

	fmt.Fprintln(out, "computing page ranks across 4 worker-bee partitions…")
	epoch := engine.ComputeRanks(4)
	if err := engine.PayPopularityRewards(epoch); err != nil {
		fmt.Fprintln(out, "(no popularity rewards due)", err)
	}

	// An editor updates an article — searchable within seconds, because
	// there is no crawler to wait for.
	update := wiki.Revise(3, 1, 0.5)
	if err := engine.Publish(editors[3%len(editors)], update.URL, update.Text+" freshlyedited", update.Links); err != nil {
		return err
	}
	engine.RunUntilIdle()
	if res, _, _ := engine.Search("freshlyedited", 3); len(res) == 1 {
		fmt.Fprintln(out, "update searchable immediately after publish:", res[0].URL)
	}

	// Queries sampled from article text.
	for _, q := range wiki.Queries(1, 4, 2) {
		results, _, err := engine.Search(q.Text, 3)
		if err != nil {
			continue
		}
		fmt.Fprintf(out, "\nquery %q\n", q.Text)
		for i, r := range results {
			fmt.Fprintf(out, "  %d. %-28s score=%.3f rank=%.4f\n", i+1, r.URL, r.Score, r.Rank)
		}
	}

	// Which editors got popularity honey?
	fmt.Fprintln(out, "\neditor balances (10000 honey at start):")
	for _, e := range editors {
		fmt.Fprintf(out, "  %-10s %6d\n", e.Name(), engine.Balance(e))
	}
	return nil
}
