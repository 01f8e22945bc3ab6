package chain

import (
	"testing"

	"repro/internal/xrand"
)

func randomHashes(rng *xrand.RNG, n int) [][32]byte {
	out := make([][32]byte, n)
	for i := range out {
		rng.Bytes(out[i][:])
	}
	return out
}

func TestMerkleRootEmpty(t *testing.T) {
	if MerkleRoot(nil) != ([32]byte{}) {
		t.Fatal("empty root should be zero")
	}
}

func TestMerkleRootSingle(t *testing.T) {
	h := randomHashes(xrand.New(1), 1)
	root := MerkleRoot(h)
	if root == ([32]byte{}) {
		t.Fatal("single root should not be zero")
	}
	// A single leaf's root is the leaf hash (domain-separated).
	if root != merkleLeaf(h[0]) {
		t.Fatal("single-tx root should equal its leaf hash")
	}
}

func TestMerkleRootChangesWithContent(t *testing.T) {
	rng := xrand.New(2)
	hashes := randomHashes(rng, 5)
	root := MerkleRoot(hashes)
	hashes[2][0] ^= 0xFF
	if MerkleRoot(hashes) == root {
		t.Fatal("modifying a tx must change the root")
	}
}

func TestMerkleRootOrderMatters(t *testing.T) {
	rng := xrand.New(3)
	hashes := randomHashes(rng, 4)
	root := MerkleRoot(hashes)
	hashes[0], hashes[1] = hashes[1], hashes[0]
	if MerkleRoot(hashes) == root {
		t.Fatal("reordering txs must change the root")
	}
}

func TestTxRootInBlockHash(t *testing.T) {
	alice := NewNamedAccount(1, "alice")
	bob := NewNamedAccount(1, "bob")
	c, _ := newTestChain(alice, bob)
	c.Submit(NewTransfer(alice, 0, bob.Address(), 10))
	blk := c.Seal()
	if blk.TxRoot == ([32]byte{}) {
		t.Fatal("tx root missing")
	}
	// Tamper the root: integrity check must fail.
	blk.TxRoot[0] ^= 1
	if err := c.VerifyIntegrity(); err == nil {
		t.Fatal("tampered tx root should fail integrity")
	}
}
