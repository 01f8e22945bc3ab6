// Resilience: the DWeb advantages the paper opens with — the same
// QueenBee deployment keeps answering queries while a growing fraction
// of the swarm is down, and recovers fully after a maintenance pass. A
// centralized engine's availability is a step function on one machine.
package main

import (
	"fmt"
	"io"
	"os"

	queenbee "repro"
	"repro/internal/core"
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
		queenbee.WithSeed(3),
		queenbee.WithPeers(24),
		queenbee.WithBees(3),
	)
	alice := engine.NewAccount("alice", 10_000)

	markers := make([]string, 12)
	for i := range markers {
		markers[i] = fmt.Sprintf("resiliencemarker%02d", i)
		url := fmt.Sprintf("dweb://site/%02d", i)
		if err := engine.Publish(alice, url, "stable page body "+markers[i], nil); err != nil {
			return err
		}
	}
	engine.RunUntilIdle()

	cluster := engine.Cluster // the simulation escape hatch
	searchable := func(fe *core.Frontend) int {
		hits := 0
		for _, m := range markers {
			if resp, err := fe.Search(m, 3); err == nil && len(resp.Results) > 0 {
				hits++
			}
		}
		return hits
	}

	fe := core.NewFrontend(cluster, cluster.Bees[0].Peer)
	fmt.Fprintf(out, "healthy swarm:          %2d/%d pages searchable\n", searchable(fe), len(markers))

	failed := cluster.FailPeers(0.25)
	fe = core.NewFrontend(cluster, cluster.Bees[1].Peer)
	fmt.Fprintf(out, "25%% of peers down:      %2d/%d pages searchable\n", searchable(fe), len(markers))

	more := cluster.FailPeers(0.35) // cumulative ≈ 50%
	fe = core.NewFrontend(cluster, cluster.Bees[2].Peer)
	fmt.Fprintf(out, "~50%% of peers down:     %2d/%d pages searchable\n", searchable(fe), len(markers))

	fmt.Fprintln(out, "running maintenance (survivors re-replicate what the index names)…")
	repair := cluster.RunMaintenance()
	fmt.Fprintf(out, "maintenance traffic:    %d msgs, %d bytes\n", repair.Cost.Msgs, repair.Cost.Bytes)
	fe = core.NewFrontend(cluster, cluster.Bees[0].Peer)
	fmt.Fprintf(out, "after maintenance:      %2d/%d pages searchable\n", searchable(fe), len(markers))

	cluster.HealPeers(append(failed, more...))
	fe = core.NewFrontend(cluster, cluster.Bees[1].Peer)
	fmt.Fprintf(out, "peers healed:           %2d/%d pages searchable\n", searchable(fe), len(markers))

	fmt.Fprintln(out, "\ncontrast: a centralized engine answers 0 queries the moment its")
	fmt.Fprintln(out, "one server is in the failed set (see cmd/experiments -exp E3).")
	return nil
}
