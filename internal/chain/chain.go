package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fanout"
	"repro/internal/vclock"
)

// Chain errors.
var (
	ErrUnknownContract = errors.New("chain: unknown contract")
	ErrTxRejected      = errors.New("chain: transaction rejected")
)

// Contract is the interface business logic implements. Execute must follow
// check-then-act: validate everything before mutating contract state, and
// perform all ledger movement through the TxContext (which buffers until
// the whole call succeeds).
type Contract interface {
	// Name is the registration key transactions address.
	Name() string
	// Execute runs one method invocation.
	Execute(ctx *TxContext, method string, params []byte) error
}

// Event is one log entry a contract emitted: a publish, task assignment
// or payout, read back through the emitting transaction (EventsFor).
type Event struct {
	Height uint64
	// Tx is the hash of the transaction that emitted the event — the
	// deterministic link from a submitted call to its outputs (e.g. the
	// campaign ID RegisterAd assigns).
	Tx       [32]byte
	Contract string
	Type     string
	Attrs    map[string]string
}

// Block is one sealed batch of transactions.
type Block struct {
	Height   uint64
	PrevHash [32]byte
	TxRoot   [32]byte // Merkle root over transaction hashes
	Time     time.Time
	Txs      []*Tx
	Hash     [32]byte
}

func (b *Block) computeTxRoot() [32]byte {
	hashes := make([][32]byte, len(b.Txs))
	for i, tx := range b.Txs {
		hashes[i] = tx.Hash()
	}
	return MerkleRoot(hashes)
}

func (b *Block) computeHash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], b.Height)
	h.Write(buf[:])
	h.Write(b.PrevHash[:])
	h.Write(b.TxRoot[:])
	binary.BigEndian.PutUint64(buf[:], uint64(b.Time.UnixNano()))
	h.Write(buf[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Receipt reports the outcome of one sealed transaction. Height is the
// block that holds it, or 0 for one Seal rejected: its signature check
// failed (ErrTxRejected), and it is in no block.
type Receipt struct {
	TxHash [32]byte
	Height uint64
	OK     bool
	Err    string
}

// Chain is the proof-of-authority blockchain: a single deterministic
// sealer (the simulation driver) orders transactions into blocks. Safe
// for concurrent use.
type Chain struct {
	mu        sync.Mutex
	clock     *vclock.Clock
	state     *State
	contracts map[string]Contract
	minters   map[string]bool
	blocks    []*Block
	pending   []queuedTx
	checks    *fanout.Group
	events    []Event
	receipts  map[[32]byte]*Receipt
}

// queuedTx is one submitted transaction and its signature check.
type queuedTx struct {
	tx    *Tx
	check *fanout.Job[error]
}

// New creates a chain with a genesis block and the given initial
// allocations (minted supply).
func New(clock *vclock.Clock, genesis map[Address]uint64) *Chain {
	c := &Chain{
		clock:     clock,
		state:     newState(),
		contracts: make(map[string]Contract),
		minters:   make(map[string]bool),
		checks:    fanout.New(),
		receipts:  make(map[[32]byte]*Receipt),
	}
	for a, amt := range genesis {
		c.state.balances[a] += amt
		c.state.supply += amt
	}
	gen := &Block{Height: 0, Time: clock.Now()}
	gen.Hash = gen.computeHash()
	c.blocks = append(c.blocks, gen)
	return c
}

// RegisterContract installs a contract. Minter contracts may create new
// honey (the paper's publish/popularity rewards are minted).
func (c *Chain) RegisterContract(ct Contract, minter bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contracts[ct.Name()] = ct
	c.minters[ct.Name()] = minter
}

// Submit queues a transaction for the next Seal and starts its stateless
// verification (signature and address binding, Tx.Verify) on the fan-out,
// beside the caller's goroutine, which does not wait for it: Seal does.
// The transaction must not change once submitted. Nonce and funds are
// checked when it is applied.
func (c *Chain) Submit(tx *Tx) {
	check := fanout.Start(c.checks, tx.Verify)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, queuedTx{tx, check})
}

// Seal orders the pending transactions into a new block, in submission
// order, and applies each as soon as its signature check is back, while
// the later ones finish. A transaction whose check failed is left out of
// the block, and its receipt reports ErrTxRejected at height 0. A
// transaction that fails when applied is included with a failure receipt
// but leaves no state change. Returns the sealed block. Seal holds the
// lock while it waits for a check, so no reader sees half a block; a
// check takes no lock.
func (c *Chain) Seal() *Block {
	c.mu.Lock()
	defer c.mu.Unlock()

	prev := c.blocks[len(c.blocks)-1]
	blk := &Block{
		Height:   prev.Height + 1,
		PrevHash: prev.Hash,
		Time:     c.clock.Now(),
	}
	for _, q := range c.pending {
		hash := q.tx.Hash()
		if err := *q.check.Wait(); err != nil {
			c.receipts[hash] = &Receipt{TxHash: hash, Err: fmt.Sprintf("%v: %v", ErrTxRejected, err)}
			continue
		}
		blk.Txs = append(blk.Txs, q.tx)
		err := c.applyLocked(q.tx, blk.Height)
		r := &Receipt{TxHash: hash, Height: blk.Height, OK: err == nil}
		if err != nil {
			r.Err = err.Error()
		}
		c.receipts[hash] = r
	}
	c.pending = nil
	blk.TxRoot = blk.computeTxRoot()
	blk.Hash = blk.computeHash()
	c.blocks = append(c.blocks, blk)
	return blk
}

// applyLocked executes one transaction against the state. Caller holds mu.
func (c *Chain) applyLocked(tx *Tx, height uint64) error {
	if c.state.nonces[tx.From] != tx.Nonce {
		return fmt.Errorf("%w: have %d, tx %d", ErrBadNonce, c.state.nonces[tx.From], tx.Nonce)
	}
	// Nonce advances even for failed transactions (as in Ethereum) so a
	// failed call cannot be replayed.
	c.state.nonces[tx.From]++

	buf := newOpBuffer(c.state)
	if tx.Contract == "" {
		if err := buf.transfer(tx.From, tx.To, tx.Value); err != nil {
			return err
		}
		buf.commit()
		return nil
	}

	ct, ok := c.contracts[tx.Contract]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownContract, tx.Contract)
	}
	escrow := EscrowAddress(tx.Contract)
	if err := buf.transfer(tx.From, escrow, tx.Value); err != nil {
		return err
	}
	ctx := &TxContext{
		chain:    c,
		buf:      buf,
		Sender:   tx.From,
		Value:    tx.Value,
		Height:   height,
		Contract: tx.Contract,
		escrow:   escrow,
		isMinter: c.minters[tx.Contract],
	}
	if err := ct.Execute(ctx, tx.Method, tx.Params); err != nil {
		return err
	}
	buf.commit()
	if len(ctx.pendingEvents) > 0 {
		txHash := tx.Hash()
		for i := range ctx.pendingEvents {
			ctx.pendingEvents[i].Tx = txHash
		}
		c.events = append(c.events, ctx.pendingEvents...)
	}
	return nil
}

// Height returns the latest block height.
func (c *Chain) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1].Height
}

// BlockAt returns the block at a height, or nil.
func (c *Chain) BlockAt(h uint64) *Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h >= uint64(len(c.blocks)) {
		return nil
	}
	return c.blocks[h]
}

// Receipt returns the receipt for a transaction hash, or nil if unknown.
func (c *Chain) Receipt(txHash [32]byte) *Receipt {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.receipts[txHash]
}

// State returns a read-only view of the ledger. Callers must not mutate.
func (c *Chain) State() *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// EventsFor returns the events one transaction emitted, in emission
// order — the way to read a contract call's outputs without scanning
// shared state that later transactions may have moved on.
func (c *Chain) EventsFor(txHash [32]byte) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A transaction executes once, so its events sit in one contiguous
	// batch — and callers almost always ask about a transaction they
	// just sealed, so scan from the tail and stop at the batch.
	end := -1
	for i := len(c.events) - 1; i >= 0; i-- {
		if c.events[i].Tx == txHash {
			end = i + 1
			break
		}
	}
	if end < 0 {
		return nil
	}
	start := end - 1
	for start > 0 && c.events[start-1].Tx == txHash {
		start--
	}
	return append([]Event(nil), c.events[start:end]...)
}

// Events returns every event (test helper).
func (c *Chain) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// VerifyIntegrity rechecks the hash chain and every signature. It returns
// an error describing the first violation found, demonstrating the
// tamper-evidence of the ledger.
func (c *Chain) VerifyIntegrity() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, blk := range c.blocks {
		if blk.computeTxRoot() != blk.TxRoot {
			return fmt.Errorf("chain: block %d tx-root mismatch", blk.Height)
		}
		if blk.computeHash() != blk.Hash {
			return fmt.Errorf("chain: block %d hash mismatch", blk.Height)
		}
		if i > 0 && blk.PrevHash != c.blocks[i-1].Hash {
			return fmt.Errorf("chain: block %d prev-hash mismatch", blk.Height)
		}
		for _, tx := range blk.Txs {
			if err := tx.Verify(); err != nil {
				return fmt.Errorf("chain: block %d: %w", blk.Height, err)
			}
		}
	}
	return nil
}

// TxContext is the capability surface a contract sees during Execute.
// Ledger mutations buffer until the call completes successfully.
type TxContext struct {
	chain    *Chain
	buf      *opBuffer
	escrow   Address
	isMinter bool

	// Sender is the externally owned account that signed the transaction.
	Sender Address
	// Value is the honey attached to the call (already moved to escrow).
	Value uint64
	// Height is the block being sealed.
	Height uint64
	// Contract is the executing contract's name.
	Contract string

	pendingEvents []Event
}

// Escrow returns the contract's escrow address.
func (ctx *TxContext) Escrow() Address { return ctx.escrow }

// PayFromEscrow moves honey from the contract's escrow to an account.
func (ctx *TxContext) PayFromEscrow(to Address, amt uint64) error {
	return ctx.buf.transfer(ctx.escrow, to, amt)
}

// Mint creates new honey. Only contracts registered as minters may mint.
func (ctx *TxContext) Mint(to Address, amt uint64) error {
	if !ctx.isMinter {
		return ErrNotMinter
	}
	ctx.buf.mintTo(to, amt)
	return nil
}

// BurnFromEscrow destroys honey held in escrow (e.g. slashed stakes).
func (ctx *TxContext) BurnFromEscrow(amt uint64) error {
	return ctx.buf.burnFrom(ctx.escrow, amt)
}

// Emit records an event, published only if the call succeeds.
func (ctx *TxContext) Emit(eventType string, attrs map[string]string) {
	ctx.pendingEvents = append(ctx.pendingEvents, Event{
		Height:   ctx.Height,
		Contract: ctx.Contract,
		Type:     eventType,
		Attrs:    attrs,
	})
}
