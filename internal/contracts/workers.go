package contracts

import (
	"fmt"

	"repro/internal/chain"
)

// Worker is a registered worker bee.
type Worker struct {
	Addr      chain.Address
	Stake     uint64
	Completed int // winning reveals
	Slashes   int
	Active    bool
}

// execRegisterWorker stakes the attached honey and joins the pool.
func (q *QueenBee) execRegisterWorker(ctx *chain.TxContext, _ []byte) error {
	if ctx.Value < MinStake {
		return fmt.Errorf("queenbee: stake %d below minimum %d", ctx.Value, MinStake)
	}
	if w, ok := q.workers[ctx.Sender]; ok && w.Active {
		return fmt.Errorf("queenbee: worker %s already registered", ctx.Sender.Short())
	}
	w, ok := q.workers[ctx.Sender]
	if !ok {
		w = &Worker{Addr: ctx.Sender}
		q.workers[ctx.Sender] = w
		q.workerList = append(q.workerList, ctx.Sender)
	}
	w.Active = true
	w.Stake += ctx.Value
	ctx.Emit(EventWorkerRegistered, map[string]string{
		"worker": ctx.Sender.String(),
	})
	return nil
}

// execDeregisterWorker leaves the pool and refunds the remaining stake.
func (q *QueenBee) execDeregisterWorker(ctx *chain.TxContext, _ []byte) error {
	w, ok := q.workers[ctx.Sender]
	if !ok || !w.Active {
		return fmt.Errorf("queenbee: worker %s not registered", ctx.Sender.Short())
	}
	refund := w.Stake
	if err := ctx.PayFromEscrow(ctx.Sender, refund); err != nil {
		return err
	}
	w.Stake = 0
	w.Active = false
	ctx.Emit(EventWorkerDeregistered, map[string]string{
		"worker": ctx.Sender.String(),
	})
	return nil
}

// WorkerInfo returns a copy of a worker record.
func (q *QueenBee) WorkerInfo(a chain.Address) (Worker, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	w, ok := q.workers[a]
	if !ok {
		return Worker{}, false
	}
	return *w, true
}

// ActiveWorkers returns the addresses of active workers in registration
// order.
func (q *QueenBee) ActiveWorkers() []chain.Address {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.activeWorkersLocked()
}

func (q *QueenBee) activeWorkersLocked() []chain.Address {
	var out []chain.Address
	for _, a := range q.workerList {
		if w := q.workers[a]; w != nil && w.Active {
			out = append(out, a)
		}
	}
	return out
}

// slashLocked burns up to slashAmount of a worker's stake. Burning (rather
// than redistributing) keeps the colluders from profiting via their own
// slashes. If the stake is exhausted the worker is deactivated.
func (q *QueenBee) slashLocked(ctx *chain.TxContext, addr chain.Address, taskID string) {
	w := q.workers[addr]
	if w == nil || w.Stake == 0 {
		return
	}
	amt := slashAmount
	if amt > w.Stake {
		amt = w.Stake
	}
	if err := ctx.BurnFromEscrow(amt); err != nil {
		return // escrow accounting bug; leave stake untouched
	}
	w.Stake -= amt
	w.Slashes++
	if w.Stake < MinStake {
		w.Active = false
	}
	ctx.Emit(EventSlashed, map[string]string{
		"worker": addr.String(),
		"amount": fmt.Sprint(amt),
		"task":   taskID,
	})
}
