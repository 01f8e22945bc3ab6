// Attacksim: the two attacks the paper predicts, run against QueenBee's
// defenses — colluding worker bees versus commit-reveal quorum voting
// with slashing, and a scraper site versus MinHash duplicate demotion.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/attack"
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
	fmt.Fprintln(out, "=== collusion attack (paper: 'colluded worker bees … manipulating QueenBee's indexes') ===")
	fmt.Fprintln(out, "5 worker bees, 12 publish tasks; sweep colluders × quorum size:")
	fmt.Fprintf(out, "%-10s %-7s %-10s %-12s %-12s\n", "colluders", "quorum", "corrupted", "corruption%", "stake burned")
	for _, quorum := range []int{1, 3, 5} {
		for _, colluders := range []int{0, 1, 2, 3} {
			r := attack.RunCollusion(1, 5, colluders, quorum, 12)
			fmt.Fprintf(out, "%-10d %-7d %-10d %-12.1f %-12d\n",
				colluders, quorum, r.Corrupted, 100*r.CorruptionRate(), r.ColluderStake)
		}
	}
	fmt.Fprintln(out, "\nreading: a minority of colluders is outvoted and loses stake on every")
	fmt.Fprintln(out, "attempt; only a colluding majority of the assigned quorum corrupts tasks.")

	fmt.Fprintln(out, "\n=== scraper-site attack (paper: 'mirror popular websites for QueenBee's honey') ===")
	for _, defense := range []bool{false, true} {
		r := attack.RunScraper(1, defense)
		mode := "defense OFF"
		if defense {
			mode = "defense ON (MinHash dedup)"
		}
		fmt.Fprintf(out, "\n%s\n", mode)
		fmt.Fprintf(out, "  original site: rank=%.4f, popularity honey=%d\n", r.OriginalRank, r.OriginalHoney)
		fmt.Fprintf(out, "  scraper mirror: rank=%.4f, popularity honey=%d\n", r.ScraperRank, r.ScraperHoney)
		fmt.Fprintf(out, "  legitimate pages wrongly demoted: %d\n", r.FalseDemotions)
	}
	fmt.Fprintln(out, "\nreading: without the defense the mirror farms the same popularity honey")
	fmt.Fprintln(out, "as the original; with MinHash demotion inside the verified rank tasks the")
	fmt.Fprintln(out, "mirror earns nothing and no legitimate page is harmed.")
	return nil
}
