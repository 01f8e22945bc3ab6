// Package dht implements a Kademlia distributed hash table over the
// simulated network. It is the routing substrate the paper assumes when it
// hosts QueenBee's inverted index and page ranks "in a decentralized
// storage (e.g., IPFS)": 160-bit XOR keyspace, k-buckets, iterative
// FIND_NODE / FIND_VALUE lookups, k-replicated STORE, and provider records.
//
// Every walk is answered first by its walker. A node's call to itself
// runs in-process: no message, no cost, no draw from a link stream. Its
// answer is heard like any other — its own copy is a vote, its own
// provider records are known, a write stores on it — and names the
// contacts its table knows closest to the key, where the walk goes on.
// But the walker is never one of the closest set a walk converges on: it
// is not among the K nearest, not in Walk.Closest, not counted as live
// and never Located.Holder. So a write lands on its writer and on K
// other nodes, and there is no other local-copy rule.
//
// The iterative walk toward a key is the expensive part of every
// operation, so an operation walks once: the quorum read of a versioned
// record (Locate) and provider discovery (FindProviders) return the Walk
// they converged on — the K closest live contacts and, for Locate, what
// each held — and the write forms PutAt / ProvideAt take such a walk and
// send only the STORE / ADD_PROVIDER wave, re-walking once if a contact
// died in between. Put, Provide and GetCtx are the same operations for
// callers with no walk to offer or no use for one; a write with no
// converged walk sends its record on the walk itself, so it is done when
// the walk converges. A walk has one of two schedules. One that converges
// on the closest set — a write, a quorum read — runs in simulated arrival
// order and asks each of the K closest it knows the moment it learns of
// it. One whose caller takes the first answer — GetCheckedCtx and
// FindProviders — asks alpha a round, in lock-step, and ends once its
// caller has what it walked for, which its walker's own answer may
// already give it.
package dht

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
)

// KeySize is the keyspace width in bytes (160 bits, as in Kademlia).
const KeySize = 20

// Key is a point in the 160-bit XOR keyspace. Node IDs and content keys
// share the space.
type Key [KeySize]byte

// KeyOf hashes arbitrary bytes into the keyspace (SHA-256 truncated).
func KeyOf(data []byte) Key {
	sum := sha256.Sum256(data)
	var k Key
	copy(k[:], sum[:KeySize])
	return k
}

// KeyOfString hashes a string into the keyspace.
func KeyOfString(s string) Key { return KeyOf([]byte(s)) }

// String returns the hex form of the key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short returns an 8-hex-digit prefix for logs.
func (k Key) Short() string { return hex.EncodeToString(k[:4]) }

// XOR returns the coordinate-wise XOR distance vector between two keys.
func (k Key) XOR(o Key) Key {
	var d Key
	be := binary.BigEndian
	be.PutUint64(d[:8], be.Uint64(k[:8])^be.Uint64(o[:8]))
	be.PutUint64(d[8:16], be.Uint64(k[8:16])^be.Uint64(o[8:16]))
	be.PutUint32(d[16:], be.Uint32(k[16:])^be.Uint32(o[16:]))
	return d
}

// hi returns the key's top 64 bits, which decide most comparisons.
func (k Key) hi() uint64 { return binary.BigEndian.Uint64(k[:8]) }

// Cmp compares two keys as big-endian integers: -1, 0 or +1.
func (k Key) Cmp(o Key) int {
	be := binary.BigEndian
	if k.hi() != o.hi() {
		return cmp.Compare(k.hi(), o.hi())
	}
	return cmp.Or(cmp.Compare(be.Uint64(k[8:16]), be.Uint64(o[8:16])), cmp.Compare(be.Uint32(k[16:]), be.Uint32(o[16:])))
}

// Less reports whether k < o as big-endian integers.
func (k Key) Less(o Key) bool { return k.Cmp(o) < 0 }

// IsZero reports whether the key is all zeros.
func (k Key) IsZero() bool { return k == Key{} }

// LeadingZeros returns the number of leading zero bits, in [0, 160].
func (k Key) LeadingZeros() int {
	n := 0
	for _, b := range k {
		if b == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(b)
		break
	}
	return n
}

// BucketIndex returns the k-bucket index for a contact at XOR distance d
// from the local node: 159 for the farthest half of the space, 0 for the
// nearest non-zero distance. Returns -1 for distance zero (self).
func BucketIndex(d Key) int {
	lz := d.LeadingZeros()
	if lz >= KeySize*8 {
		return -1
	}
	return KeySize*8 - 1 - lz
}

// DistanceLess reports whether a is closer to target than b under XOR.
func DistanceLess(target, a, b Key) bool {
	return a.XOR(target).Less(b.XOR(target))
}
