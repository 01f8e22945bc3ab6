// Quickstart: the smallest complete QueenBee session — publish pages
// through the smart contract, let the worker bees index them, search
// with both the one-line facade and the structured query builder, and
// fetch the tamper-proof content back.
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
	// Boot a small simulated deployment: 12 DWeb devices, 3 worker bees.
	engine := queenbee.New(
		queenbee.WithSeed(42),
		queenbee.WithPeers(12),
		queenbee.WithBees(3),
	)

	// A content creator with some honey.
	alice := engine.NewAccount("alice", 1_000)

	// Publish: content goes to the DWeb store, the URL→CID binding and
	// the index task go on chain. No crawler will ever visit these pages —
	// the publish event itself drives indexing.
	pages := []struct{ url, text string }{
		{"dweb://alice/honey-guide", "A practical guide to harvesting honey from decentralized hives."},
		{"dweb://alice/wax-guide", "Harvesting wax combs without disturbing the honey stores."},
		{"dweb://bob/beekeeping", "Beekeeping basics: hives, honey flows, and seasonal care."},
	}
	for _, p := range pages {
		if err := engine.Publish(alice, p.url, p.text, nil); err != nil {
			return err
		}
	}

	// Worker bees pick up the index tasks, vote on the results by
	// commit-reveal, and materialize the winning segments into the DHT.
	engine.RunUntilIdle()

	// Search from any device.
	results, _, err := engine.Search("harvesting honey", 10)
	if err != nil {
		return err
	}
	for i, r := range results {
		fmt.Fprintf(out, "%d. %s (score %.3f)\n", i+1, r.URL, r.Score)
	}

	// The structured query builder speaks a full boolean language —
	// uppercase OR/AND, '-' exclusions, "quoted phrases", site: URL
	// prefix filters — with pagination and an execution trace.
	resp, err := engine.Query(`honey -wax site:dweb://alice/`).
		Page(1, 5).
		Explain().
		Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "structured query → %d of %d matches\n", len(resp.Results), resp.Total)
	for i, r := range resp.Results {
		fmt.Fprintf(out, "%d. %s (score %.3f)\n", i+1, r.URL, r.Score)
	}
	fmt.Fprint(out, resp.Explain)

	// Fetch the content back — hash-verified end to end.
	content, err := engine.Fetch(results[0])
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "content:", content)

	s := engine.Stats()
	fmt.Fprintf(out, "pages=%d tasks=%d height=%d supply=%d\n",
		s.Pages, s.TasksFinalized, s.Height, s.HoneySupply)
	return nil
}
