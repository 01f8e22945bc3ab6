// Fixture for the costdrop analyzer, exercised against the real netsim and
// dht packages: every netsim.Cost result must reach an accumulator or a
// receipt. The code only needs to type-check — it never runs.
package costdrop

import (
	"context"

	"repro/internal/dht"
	"repro/internal/netsim"
)

// wave stands in for the core/ingest wave folds that return a Cost from a
// package outside netsim: the type, not the callee's package, is the marker.
func wave() netsim.Cost { return netsim.Cost{} }

func bad(net *netsim.Network, n *dht.Node, a, b netsim.NodeID) {
	net.CallCtx(context.Background(), a, b, nil) // want `netsim\.Cost \(result 2 of 3\) returned by netsim\.Network\.CallCtx is discarded`
	n.RefreshBuckets(1)                          // want `netsim\.Cost returned by dht\.Node\.RefreshBuckets is discarded`
	wave()                                       // want `netsim\.Cost returned by costdrop\.wave is discarded`
	_ = wave()                                   // want `netsim\.Cost from costdrop\.wave assigned to _`

	resp, _, err := net.CallCtx(context.Background(), a, b, nil) // want `netsim\.Cost \(result 2 of 3\) from netsim\.Network\.CallCtx assigned to _`
	use(resp, err)
}

func good(net *netsim.Network, n *dht.Node, a, b netsim.NodeID) netsim.Cost {
	var total netsim.Cost
	total = total.Seq(wave())
	total = total.Seq(n.RefreshBuckets(1))
	_, cost, err := net.CallCtx(context.Background(), a, b, nil)
	use(err)
	return total.Seq(cost)
}

func use(...any) {}
