package chain

import (
	"errors"
	"fmt"
)

// Ledger errors.
var (
	ErrInsufficientFunds = errors.New("chain: insufficient funds")
	ErrBadNonce          = errors.New("chain: bad nonce")
	ErrNotMinter         = errors.New("chain: contract lacks mint privilege")
)

// State is the honey ledger: balances, nonces and total supply. Mutations
// happen only through the chain's transaction application.
type State struct {
	balances map[Address]uint64
	nonces   map[Address]uint64
	supply   uint64
	burned   uint64
}

func newState() *State {
	return &State{
		balances: make(map[Address]uint64),
		nonces:   make(map[Address]uint64),
	}
}

// Balance returns an account's honey balance.
func (s *State) Balance(a Address) uint64 { return s.balances[a] }

// Nonce returns the next expected nonce for an account.
func (s *State) Nonce(a Address) uint64 { return s.nonces[a] }

// Supply returns total honey ever minted minus burned.
func (s *State) Supply() uint64 { return s.supply }

// Burned returns total honey destroyed (e.g. slashing burns).
func (s *State) Burned() uint64 { return s.burned }

// SumBalances returns the sum of all account balances. The conservation
// invariant is SumBalances() == Supply().
func (s *State) SumBalances() uint64 {
	var sum uint64
	for _, b := range s.balances {
		sum += b
	}
	return sum
}

// ledgerOp is one buffered mutation produced during contract execution.
// Ops are validated against a view that includes earlier buffered ops and
// applied atomically only if the whole transaction succeeds.
type ledgerOp struct {
	kind byte // 't' transfer, 'm' mint, 'b' burn
	from Address
	to   Address
	amt  uint64
}

// opBuffer accumulates ledger mutations for one transaction.
type opBuffer struct {
	state *State
	ops   []ledgerOp
	delta map[Address]int64
	mint  int64
	burn  int64
}

func newOpBuffer(s *State) *opBuffer {
	return &opBuffer{state: s, delta: make(map[Address]int64)}
}

// effective returns the balance of a as seen through buffered ops.
func (b *opBuffer) effective(a Address) uint64 {
	base := int64(b.state.balances[a]) + b.delta[a]
	if base < 0 {
		// Cannot happen if transfer validation is correct.
		panic(fmt.Sprintf("chain: negative effective balance for %s", a.Short()))
	}
	return uint64(base)
}

// transfer buffers a transfer, validating against the effective view.
func (b *opBuffer) transfer(from, to Address, amt uint64) error {
	if amt == 0 {
		return nil
	}
	if b.effective(from) < amt {
		return fmt.Errorf("%w: %s has %d, needs %d",
			ErrInsufficientFunds, from.Short(), b.effective(from), amt)
	}
	b.ops = append(b.ops, ledgerOp{kind: 't', from: from, to: to, amt: amt})
	b.delta[from] -= int64(amt)
	b.delta[to] += int64(amt)
	return nil
}

// mintTo buffers a mint.
func (b *opBuffer) mintTo(to Address, amt uint64) {
	if amt == 0 {
		return
	}
	b.ops = append(b.ops, ledgerOp{kind: 'm', to: to, amt: amt})
	b.delta[to] += int64(amt)
	b.mint += int64(amt)
}

// burnFrom buffers a burn, validating against the effective view.
func (b *opBuffer) burnFrom(from Address, amt uint64) error {
	if amt == 0 {
		return nil
	}
	if b.effective(from) < amt {
		return fmt.Errorf("%w: burn from %s", ErrInsufficientFunds, from.Short())
	}
	b.ops = append(b.ops, ledgerOp{kind: 'b', from: from, amt: amt})
	b.delta[from] -= int64(amt)
	b.burn += int64(amt)
	return nil
}

// commit applies all buffered ops to the state.
func (b *opBuffer) commit() {
	for _, op := range b.ops {
		switch op.kind {
		case 't':
			b.state.balances[op.from] -= op.amt
			b.state.balances[op.to] += op.amt
		case 'm':
			b.state.balances[op.to] += op.amt
			b.state.supply += op.amt
		case 'b':
			b.state.balances[op.from] -= op.amt
			b.state.supply -= op.amt
			b.state.burned += op.amt
		}
	}
	b.ops = nil
}
