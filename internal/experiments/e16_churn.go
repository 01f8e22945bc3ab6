package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "Self-healing under churn: completeness and repair traffic, maintenance on vs off",
		Claim: "personal devices come and go, so the index must survive churn: republish and re-seed loops keep results complete where an unmaintained index decays",
		Run:   runE16,
	})
}

// runE16 subjects a deployment to sustained churn — a fresh crash wave
// at every round — and measures what fraction of a marker corpus stays
// searchable, with the self-healing loops on vs off. Replication is
// deliberately lowered to 3 so erosion is visible within a few waves
// (at the default K=8 a crash-only storm almost never blinds a record;
// the robustness is the point, but it makes a table of 1.00s).
//
// Reported per (crash rate, maintenance) configuration:
//
//   - completeness after the first wave and after the last: with
//     maintenance each wave's losses are re-seeded onto survivors before
//     the next wave lands, without it the replica sets only erode;
//   - repair work (records republished, segments re-seeded, segments
//     irrecoverably lost) and the repair traffic in simulated messages —
//     the price of staying complete.
func runE16(seed uint64) []*metrics.Table {
	const (
		peers       = 32
		bees        = 3
		markers     = 10
		rounds      = 6
		replication = 3
	)

	t := metrics.NewTable("E16 — self-healing under churn (replication 3)",
		"crash/round", "maintenance", "compl wave 1", fmt.Sprintf("compl wave %d", rounds),
		"republished", "reseeded", "lost", "repair msgs")

	for _, frac := range []float64{0.10, 0.20} {
		for _, maint := range []bool{false, true} {
			c, accts := newCluster(seed, peers, bees, func(cfg *core.Config) {
				cfg.DHT.K = replication
			}, 1_000_000, "publisher")
			terms := make([]string, markers)
			pages := make([]core.BatchPage, markers)
			for i := range pages {
				terms[i] = fmt.Sprintf("churnsixteen%02d", i)
				pages[i] = core.BatchPage{URL: fmt.Sprintf("dweb://e16/%d", i), Text: "self healing churn marker " + terms[i]}
			}
			publishPages(c, accts, pages, 0, 0, 8)

			// The plan is installed only after the index is built, so the
			// waves hit a complete deployment. One crash wave per round;
			// every wave samples victims from the current survivors.
			events := make([]netsim.FaultEvent, 0, rounds)
			for r := 0; r < rounds; r++ {
				events = append(events, netsim.FaultEvent{
					At:       time.Duration(r) * core.BlockInterval,
					Kind:     netsim.FaultCrash,
					Fraction: frac,
				})
			}
			scope := make([]netsim.NodeID, 0, len(c.Peers))
			for _, p := range c.Peers {
				scope = append(scope, p.Addr())
			}
			c.SetFaultPlan(&netsim.FaultPlan{Seed: seed, Scope: scope, Events: events})

			var first, last float64
			for r := 0; r < rounds; r++ {
				c.Seal()
				compl := searchableFraction(c, terms)
				if r == 0 {
					first = compl
				}
				last = compl
				if maint {
					c.RunMaintenance()
				}
			}
			rs := c.RepairStats()
			t.AddRow(frac, onOff(maint), first, last,
				rs.Republished, rs.Reseeded, rs.SegmentsLost, rs.Cost.Msgs)
		}
	}
	return []*metrics.Table{t}
}

// searchableFraction measures the marker corpus through a fresh
// frontend (cold caches — every measurement pays the real DHT reads)
// attached to a bee, which never churns.
func searchableFraction(c *core.Cluster, terms []string) float64 {
	fe := core.NewFrontend(c, c.Bees[0].Peer)
	hits := 0
	for _, term := range terms {
		resp, err := fe.ExecuteCtx(context.Background(), core.Query{Raw: term, Mode: core.PlanAll, Limit: 5})
		if err == nil && len(resp.Results) > 0 {
			hits++
		}
	}
	return float64(hits) / float64(len(terms))
}
