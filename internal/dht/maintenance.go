package dht

import (
	"repro/internal/netsim"
)

// ProbeReplication asks each of the k closest live nodes to key whether
// it holds a replica, and returns the walk with the answers filled in:
// Walk.Replicas is the maintenance loop's health check for immutable
// records (a versioned record's health is read off Locate, which asks
// the same question on its way) — a count below K means churn has eaten
// replicas and the key needs a re-seed, which PutAt lands on this same
// walk. The probe is direct — one FIND_VALUE per closest node after the
// lookup converges — so the count reflects what a read would actually
// see. A contact that fails its probe stays in the walk as a non-holder:
// a write reusing the walk then trips PutAt's staleness fallback.
func (n *Node) ProbeReplication(key Key) (Walk, netsim.Cost) {
	w, cost := n.lookupNodes(key)
	var probeCost netsim.Cost
	for i, r := range w.Closest {
		resp, cc, err := n.call(r.Contact, findValueReq{From: n.self, Key: key})
		probeCost = probeCost.Par(cc)
		if err != nil {
			continue
		}
		if fv := resp.(findValueResp); fv.Found {
			w.Closest[i].Held, w.Closest[i].Seq = true, fv.Seq
		}
	}
	return w, cost.Seq(probeCost)
}
