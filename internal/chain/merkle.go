package chain

import "crypto/sha256"

// Merkle transaction commitments: every block commits to its transaction
// set with a binary Merkle root (Block.TxRoot), which the block hash
// covers, so no transaction of a sealed block can be changed, dropped or
// reordered without breaking the hash chain VerifyIntegrity checks.

// merkleLeaf domain-separates leaves from interior nodes (second-preimage
// hardening, as in RFC 6962).
func merkleLeaf(h [32]byte) [32]byte {
	return sha256.Sum256(append([]byte{0x00}, h[:]...))
}

func merkleNode(l, r [32]byte) [32]byte {
	buf := make([]byte, 1, 65)
	buf[0] = 0x01
	buf = append(buf, l[:]...)
	buf = append(buf, r[:]...)
	return sha256.Sum256(buf)
}

// MerkleRoot computes the root over transaction hashes. An empty set has
// the zero root. Odd levels promote the last node unchanged.
func MerkleRoot(txHashes [][32]byte) [32]byte {
	if len(txHashes) == 0 {
		return [32]byte{}
	}
	level := make([][32]byte, len(txHashes))
	for i, h := range txHashes {
		level[i] = merkleLeaf(h)
	}
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, merkleNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}
