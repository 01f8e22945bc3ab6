// Fixture for the errsink analyzer, exercised against the real dht/store
// packages: discarded errors from replicated-state ops are findings;
// handling or recording them is not. The code only needs to type-check —
// it never runs.
package errsink

import (
	"context"

	"repro/internal/dht"
	"repro/internal/store"
)

// Receipt mimics the RoundReceipt pattern: errors recorded, not dropped.
type Receipt struct {
	Errs []error
}

func bad(n *dht.Node, p *store.Peer, k dht.Key) {
	n.Put(k, nil, 1)              // want `error \(result 3 of 3\) returned by dht\.Node\.Put is discarded`
	p.Add([]byte("x"))            // want `error \(result 3 of 3\) returned by store\.Peer\.Add is discarded`
	_, _, err := n.Put(k, nil, 2) // fine: err is bound…
	use(err)
	v, _, _, _ := n.GetCtx(context.Background(), k) // want `error \(result 4 of 4\) from dht\.Node\.GetCtx assigned to _`
	use(v)
}

func badPositional(n *dht.Node, k dht.Key) {
	var v []byte
	v, _, _ = n.GetImmutableCtx(context.Background(), k) // want `error \(result 3 of 3\) from dht\.Node\.GetImmutableCtx assigned to _`
	use(v)
}

func good(n *dht.Node, p *store.Peer, k dht.Key, r *Receipt) error {
	if _, _, err := n.Put(k, nil, 3); err != nil {
		return err
	}
	_, _, err := p.Add([]byte("y"))
	if err != nil {
		r.Errs = append(r.Errs, err)
	}
	_, _, err2 := n.Put(k, nil, 4)
	return err2
}

func use(...any) {}
