package chain

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
	"repro/internal/xrand"
)

func newTestChain(accts ...*Account) (*Chain, *vclock.Clock) {
	clock := vclock.New(time.Time{})
	genesis := make(map[Address]uint64)
	for _, a := range accts {
		genesis[a.Address()] = 1000
	}
	return New(clock, genesis), clock
}

func TestGenesisAllocation(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	if got := c.State().Balance(alice.Address()); got != 1000 {
		t.Fatalf("genesis balance = %d, want 1000", got)
	}
	if c.State().Supply() != 1000 {
		t.Fatalf("supply = %d, want 1000", c.State().Supply())
	}
}

func TestTransfer(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	bob := NewNamedAccount(1, "bob")
	c, _ := newTestChain(alice, bob)

	tx := NewTransfer(alice, 0, bob.Address(), 300)
	c.Submit(tx)
	blk := c.Seal()
	if len(blk.Txs) != 1 {
		t.Fatalf("block txs = %d, want 1", len(blk.Txs))
	}
	if r := c.Receipt(tx.Hash()); r == nil || !r.OK || r.Height != blk.Height {
		t.Fatalf("receipt = %+v, want OK at height %d", r, blk.Height)
	}
	if got := c.State().Balance(alice.Address()); got != 700 {
		t.Fatalf("alice = %d, want 700", got)
	}
	if got := c.State().Balance(bob.Address()); got != 1300 {
		t.Fatalf("bob = %d, want 1300", got)
	}
}

func TestTransferInsufficientFunds(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	bob := NewNamedAccount(1, "bob")
	c, _ := newTestChain(alice, bob)

	tx := NewTransfer(alice, 0, bob.Address(), 5000)
	c.Submit(tx)
	c.Seal()
	r := c.Receipt(tx.Hash())
	if r == nil || r.OK {
		t.Fatalf("receipt = %+v, want failure", r)
	}
	if got := c.State().Balance(alice.Address()); got != 1000 {
		t.Fatalf("alice = %d, want unchanged 1000", got)
	}
}

func TestNonceEnforcement(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	bob := NewNamedAccount(1, "bob")
	c, _ := newTestChain(alice, bob)

	// Wrong nonce (1 instead of 0) must fail.
	bad := NewTransfer(alice, 1, bob.Address(), 10)
	c.Submit(bad)
	c.Seal()
	if r := c.Receipt(bad.Hash()); r.OK {
		t.Fatal("tx with future nonce should fail")
	}

	good := NewTransfer(alice, 0, bob.Address(), 10)
	c.Submit(good)
	c.Seal()
	if r := c.Receipt(good.Hash()); !r.OK {
		t.Fatalf("tx with correct nonce failed: %s", r.Err)
	}
}

func TestNonceAdvancesOnFailure(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	bob := NewNamedAccount(1, "bob")
	c, _ := newTestChain(alice, bob)

	fail := NewTransfer(alice, 0, bob.Address(), 99999)
	c.Submit(fail)
	c.Seal()
	if c.State().Nonce(alice.Address()) != 1 {
		t.Fatal("nonce should advance on failed tx")
	}
	// Replaying the same tx must now fail on nonce, not balance.
	c.Submit(fail)
	c.Seal()
	// Two receipts share a hash; the important part is no double spend:
	if got := c.State().Balance(alice.Address()); got != 1000 {
		t.Fatalf("alice = %d, want 1000", got)
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	mallory := NewNamedAccount(1, "mallory")
	c, _ := newTestChain(alice, mallory)

	// Mallory signs a transfer claiming to be from Alice.
	tx := &Tx{
		From:   alice.Address(),
		Nonce:  0,
		To:     mallory.Address(),
		Value:  500,
		PubKey: mallory.PublicKey(),
	}
	tx.Sig = mallory.Sign(tx.SigHash())
	c.Submit(tx)
	assertRejected(t, c, c.Seal(), tx)
	if got := c.State().Balance(alice.Address()); got != 1000 {
		t.Fatalf("alice = %d, want unchanged 1000", got)
	}
}

func TestTamperedParamsRejected(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	tx := NewTransfer(alice, 0, alice.Address(), 5)
	tx.Value = 999 // tamper after signing
	c.Submit(tx)
	assertRejected(t, c, c.Seal(), tx)
}

// assertRejected checks that Seal left tx out of blk, nonce untouched,
// and told its submitter why: a receipt at height 0 naming ErrTxRejected.
func assertRejected(t *testing.T, c *Chain, blk *Block, tx *Tx) {
	t.Helper()
	for _, in := range blk.Txs {
		if in.Hash() == tx.Hash() {
			t.Fatalf("block %d holds a transaction that fails verification", blk.Height)
		}
	}
	r := c.Receipt(tx.Hash())
	if r == nil || r.OK || r.Height != 0 || !strings.HasPrefix(r.Err, ErrTxRejected.Error()) {
		t.Fatalf("receipt = %+v, want a rejection (%v) at height 0", r, ErrTxRejected)
	}
	if got := c.State().Nonce(tx.From); got != tx.Nonce {
		t.Fatalf("nonce of %s = %d after a rejected tx at nonce %d", tx.From.Short(), got, tx.Nonce)
	}
}

// TestSealLeavesBadSignaturesOut: the signature checks run on the
// fan-out while transactions keep arriving, and finish in any order, at
// any GOMAXPROCS. Forged and tampered transactions interleaved with good
// ones never enter the block and are told so, and the good ones enter in
// submission order, each at the nonce the rejected one before it left
// unused.
func TestSealLeavesBadSignaturesOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		alice := NewNamedAccount(1, "alice")
		mallory := NewNamedAccount(1, "mallory")
		c, _ := newTestChain(alice, mallory)
		var good, bad []*Tx
		for n := uint64(0); n < 16; n++ {
			forged := &Tx{From: alice.Address(), Nonce: n, To: mallory.Address(), Value: 500, PubKey: mallory.PublicKey()}
			forged.Sig = mallory.Sign(forged.SigHash())
			tampered := NewTransfer(alice, n, mallory.Address(), 1)
			tampered.Value = 900 // after signing
			ok := NewTransfer(alice, n, mallory.Address(), 1)
			c.Submit(forged)
			c.Submit(ok)
			c.Submit(tampered)
			good, bad = append(good, ok), append(bad, forged, tampered)
		}
		blk := c.Seal()
		if len(blk.Txs) != len(good) {
			t.Fatalf("GOMAXPROCS=%d: block holds %d txs, want %d", procs, len(blk.Txs), len(good))
		}
		for i, tx := range good {
			if blk.Txs[i] != tx {
				t.Fatalf("GOMAXPROCS=%d: block tx %d is not the %d-th good submission", procs, i, i)
			}
			if r := c.Receipt(tx.Hash()); r == nil || !r.OK || r.Height != blk.Height {
				t.Fatalf("GOMAXPROCS=%d: good tx %d receipt = %+v", procs, i, r)
			}
		}
		for _, tx := range bad {
			r := c.Receipt(tx.Hash())
			if r == nil || r.OK || r.Height != 0 || !strings.HasPrefix(r.Err, ErrTxRejected.Error()) {
				t.Fatalf("GOMAXPROCS=%d: bad tx receipt = %+v, want a rejection at height 0", procs, r)
			}
		}
		if got := c.State().Balance(mallory.Address()); got != 1000+uint64(len(good)) {
			t.Fatalf("GOMAXPROCS=%d: mallory = %d, want %d", procs, got, 1000+len(good))
		}
		if err := c.VerifyIntegrity(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
}

// testContract exercises the TxContext surface.
type testContract struct {
	callCount int
	failNext  bool
}

func (tc *testContract) Name() string { return "test" }

func (tc *testContract) Execute(ctx *TxContext, method string, params []byte) error {
	switch method {
	case "noop":
		tc.callCount++
		return nil
	case "fail-after-pay":
		// Buffered payment must be rolled back when the method fails.
		if err := ctx.PayFromEscrow(ctx.Sender, ctx.Value); err != nil {
			return err
		}
		return errors.New("deliberate failure")
	case "refund":
		return ctx.PayFromEscrow(ctx.Sender, ctx.Value)
	case "emit":
		ctx.Emit("tested", map[string]string{"k": "v"})
		return nil
	case "mint":
		return ctx.Mint(ctx.Sender, 50)
	case "burn":
		return ctx.BurnFromEscrow(ctx.Value)
	default:
		return errors.New("unknown method")
	}
}

func TestContractCallAndEscrow(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	tc := &testContract{}
	c.RegisterContract(tc, false)

	c.Submit(NewCall(alice, 0, "test", "noop", nil, 100))
	c.Seal()
	if tc.callCount != 1 {
		t.Fatal("contract not invoked")
	}
	if got := c.State().Balance(EscrowAddress("test")); got != 100 {
		t.Fatalf("escrow = %d, want 100", got)
	}
	if got := c.State().Balance(alice.Address()); got != 900 {
		t.Fatalf("alice = %d, want 900", got)
	}
}

func TestFailedContractCallRollsBack(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	c.RegisterContract(&testContract{}, false)

	tx := NewCall(alice, 0, "test", "fail-after-pay", nil, 100)
	c.Submit(tx)
	c.Seal()
	if r := c.Receipt(tx.Hash()); r.OK {
		t.Fatal("call should have failed")
	}
	if got := c.State().Balance(alice.Address()); got != 1000 {
		t.Fatalf("alice = %d, want full rollback to 1000", got)
	}
	if got := c.State().Balance(EscrowAddress("test")); got != 0 {
		t.Fatalf("escrow = %d, want 0", got)
	}
}

func TestContractRefund(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	c.RegisterContract(&testContract{}, false)
	c.Submit(NewCall(alice, 0, "test", "refund", nil, 250))
	c.Seal()
	if got := c.State().Balance(alice.Address()); got != 1000 {
		t.Fatalf("alice = %d, want 1000 after refund", got)
	}
}

func TestEventsEmittedOnlyOnSuccess(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	c.RegisterContract(&testContract{}, false)

	c.Submit(NewCall(alice, 0, "test", "emit", nil, 0))
	c.Submit(NewCall(alice, 1, "test", "fail-after-pay", nil, 10))
	c.Seal()

	events, height := c.Events(), c.Height()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if events[0].Type != "tested" || events[0].Attrs["k"] != "v" {
		t.Fatalf("event = %+v", events[0])
	}
	if height != 1 {
		t.Fatalf("height = %d, want 1", height)
	}
}

// TestEventsForTx: two emitting calls in one block; each transaction's
// events carry its hash, and EventsFor slices them apart.
func TestEventsForTx(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	c.RegisterContract(&testContract{}, false)

	tx1 := NewCall(alice, 0, "test", "emit", nil, 0)
	tx2 := NewCall(alice, 1, "test", "emit", nil, 0)
	c.Submit(tx1)
	c.Submit(tx2)
	c.Seal()

	for _, tx := range []*Tx{tx1, tx2} {
		h := tx.Hash()
		evs := c.EventsFor(h)
		if len(evs) != 1 {
			t.Fatalf("EventsFor(%x) = %d events, want 1", h[:4], len(evs))
		}
		if evs[0].Tx != h || evs[0].Type != "tested" {
			t.Fatalf("event = %+v, want stamped with tx %x", evs[0], h[:4])
		}
	}
	if evs := c.EventsFor([32]byte{0xFF}); evs != nil {
		t.Fatalf("unknown tx hash returned events: %+v", evs)
	}
}

func TestMintPrivilege(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	c.RegisterContract(&testContract{}, false) // not a minter

	tx := NewCall(alice, 0, "test", "mint", nil, 0)
	c.Submit(tx)
	c.Seal()
	if r := c.Receipt(tx.Hash()); r.OK {
		t.Fatal("mint without privilege should fail")
	}

	c2, _ := newTestChain(alice)
	c2.RegisterContract(&testContract{}, true) // minter
	c2.Submit(NewCall(alice, 0, "test", "mint", nil, 0))
	c2.Seal()
	if got := c2.State().Balance(alice.Address()); got != 1050 {
		t.Fatalf("alice = %d, want 1050 after mint", got)
	}
	if c2.State().Supply() != 1050 {
		t.Fatalf("supply = %d, want 1050", c2.State().Supply())
	}
}

func TestBurnReducesSupply(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	c.RegisterContract(&testContract{}, false)
	c.Submit(NewCall(alice, 0, "test", "burn", nil, 200))
	c.Seal()
	if got := c.State().Supply(); got != 800 {
		t.Fatalf("supply = %d, want 800", got)
	}
	if got := c.State().Burned(); got != 200 {
		t.Fatalf("burned = %d, want 200", got)
	}
}

func TestConservationInvariant(t *testing.T) {
	rng := xrand.New(77)
	accts := make([]*Account, 6)
	for i := range accts {
		accts[i] = NewAccount(rng)
	}
	c, _ := newTestChain(accts...)
	c.RegisterContract(&testContract{}, true)

	nonces := make(map[Address]uint64)
	for round := 0; round < 30; round++ {
		from := accts[rng.Intn(len(accts))]
		to := accts[rng.Intn(len(accts))]
		n := nonces[from.Address()]
		nonces[from.Address()]++
		switch rng.Intn(4) {
		case 0:
			c.Submit(NewTransfer(from, n, to.Address(), uint64(rng.Intn(200))))
		case 1:
			c.Submit(NewCall(from, n, "test", "refund", nil, uint64(rng.Intn(100))))
		case 2:
			c.Submit(NewCall(from, n, "test", "mint", nil, 0))
		case 3:
			c.Submit(NewCall(from, n, "test", "burn", nil, uint64(rng.Intn(50))))
		}
		if round%5 == 4 {
			c.Seal()
		}
	}
	c.Seal()
	if got, want := c.State().SumBalances(), c.State().Supply(); got != want {
		t.Fatalf("conservation violated: balances %d != supply %d", got, want)
	}
}

func TestChainIntegrity(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	bob := NewNamedAccount(1, "bob")
	c, clock := newTestChain(alice, bob)
	for i := uint64(0); i < 3; i++ {
		c.Submit(NewTransfer(alice, i, bob.Address(), 1))
		clock.Advance(10 * time.Second)
		c.Seal()
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Tamper with a sealed block.
	blk := c.BlockAt(2)
	blk.Txs[0].Value = 999
	if err := c.VerifyIntegrity(); err == nil {
		t.Fatal("tampered chain should fail integrity check")
	}
}

func TestBlockLinks(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	c.Seal()
	c.Seal()
	b1, b2 := c.BlockAt(1), c.BlockAt(2)
	if b2.PrevHash != b1.Hash {
		t.Fatal("prev hash link broken")
	}
	if c.Height() != 2 {
		t.Fatalf("height = %d, want 2", c.Height())
	}
	if c.BlockAt(99) != nil {
		t.Fatal("missing block should be nil")
	}
}

func TestUnknownContract(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	tx := NewCall(alice, 0, "ghost", "boo", nil, 0)
	c.Submit(tx)
	c.Seal()
	r := c.Receipt(tx.Hash())
	if r.OK {
		t.Fatal("call to unknown contract should fail")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	type params struct {
		URL   string
		Count int
	}
	in := params{URL: "dweb://x", Count: 7}
	var out params
	if err := DecodeParams(EncodeParams(in), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	var empty params
	if err := DecodeParams(nil, &empty); err != nil {
		t.Fatal(err)
	}
}

func TestAccountDeterminism(t *testing.T) {
	a1 := NewNamedAccount(9, "worker-1")
	a2 := NewNamedAccount(9, "worker-1")
	if a1.Address() != a2.Address() {
		t.Fatal("NewNamedAccount not deterministic")
	}
	if NewNamedAccount(9, "worker-2").Address() == a1.Address() {
		t.Fatal("different names should give different accounts")
	}
}

// Property: a sequence of valid transfers preserves supply.
func TestTransferConservationProperty(t *testing.T) {
	f := func(amounts []uint16) bool {
		alice := NewNamedAccount(3, "alice")
		bob := NewNamedAccount(3, "bob")
		c, _ := newTestChain(alice, bob)
		for i, raw := range amounts {
			if i >= 20 {
				break
			}
			c.Submit(NewTransfer(alice, uint64(i), bob.Address(), uint64(raw%500)))
		}
		c.Seal()
		return c.State().SumBalances() == c.State().Supply()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReceiptUnknownTx(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	c, _ := newTestChain(alice)
	if c.Receipt([32]byte{1, 2, 3}) != nil {
		t.Fatal("unknown tx should have nil receipt")
	}
}

func TestTxWireSizePositive(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	tx := NewCall(alice, 0, "queenbee", "publish", map[string]string{"URL": "u"}, 0)
	if tx.WireSize() < 100 {
		t.Fatalf("wire size = %d, implausibly small", tx.WireSize())
	}
}
