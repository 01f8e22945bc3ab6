package index

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// DigestOf returns the hex SHA-256 of encoded bytes: the content address
// of a segment and the digest worker bees vote on.
func DigestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// IsDigest reports whether s has the exact form DigestOf prints: 64
// lower-case hex characters. Digests read from the network (shard
// pointers) are checked with it before they name a segment key.
func IsDigest(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Sharding maps terms onto a fixed number of index shards; each shard's
// segment chain lives under a deterministic DHT key, so any frontend can
// locate the postings for a term with one hash.

// DefaultShards is the default shard count for the distributed index.
const DefaultShards = 16

// ShardOf maps a term to its shard in [0, numShards).
func ShardOf(term string, numShards int) int {
	if numShards <= 0 {
		numShards = DefaultShards
	}
	return int(fnv32a(term) % uint32(numShards))
}

// fnv32a is FNV-1a over s's bytes: hash/fnv's New32a without the
// allocations of a hash.Hash and a []byte copy, since compaction's
// merge routes every term of every input run by it (MergeShards).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ShardPointerKey names the DHT record that holds a shard's segment list.
func ShardPointerKey(shard int) string {
	return fmt.Sprintf("qb:shard:%d", shard)
}

// SegmentKey names the DHT record holding a segment by its content
// digest (hex SHA-256 of the encoded segment).
func SegmentKey(digestHex string) string {
	return "qb:seg:" + digestHex
}

// DocIDOf derives the stable DocID for a URL (FNV-32a). The 32-bit space
// is ample for simulation corpora; collisions would only merge two URLs'
// postings.
func DocIDOf(url string) DocID {
	return DocID(fnv32a(url))
}
