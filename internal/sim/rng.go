package sim

import "math/rand"

// splitmix64 advances and scrambles a 64-bit state. It is used to derive
// independent deterministic seeds for per-node randomness and per-message
// delays from a single run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// deriveSeed mixes a run seed with a stream label and index.
func deriveSeed(seed int64, stream uint64, index uint64) int64 {
	h := splitmix64(uint64(seed) ^ stream*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ index)
	return int64(h)
}

// streams for seed derivation
const (
	streamNodeRand uint64 = 1 + iota
	streamDelay
	streamWake
	streamPorts
	streamRun
)

// NodeRand returns the private randomness source for node v under the given
// run seed. It is the single derivation rule of both timing models, so a
// node observes the same random stream whichever model it runs in.
//
// The stream is a compact PCG generator (16 bytes of state, see pcg.go)
// seeded from deriveSeed(seed, streamNodeRand, v) — O(1) state and O(1)
// seeding work per node, replacing the ~5 KiB / O(607) lagged-Fibonacci
// source that dominated million-node runs. TestNodeStreamFrozen pins the
// exact output stream against a committed golden fixture, so it can never
// silently change again.
func NodeRand(seed int64, v int) *rand.Rand {
	return rand.New(NewPCG(deriveSeed(seed, streamNodeRand, uint64(v))))
}

// ReseedNode re-seeds r in place to node v's private stream under the given
// run seed — exactly the stream a fresh NodeRand(seed, v) produces, without
// allocating (rand.Rand.Seed resets both the generator state and the Read
// position; PCG.Seed is two splitmix64 evaluations). Engine scratch reuse
// depends on this equivalence; a test pins it against NodeRand.
//
//wakeup:noalloc
func ReseedNode(r *rand.Rand, seed int64, v int) {
	//lint:noalloc-ok rand.Rand.Seed resets the generator state in place (O(1) for the PCG source); the zero-alloc reseed test pins this
	r.Seed(deriveSeed(seed, streamNodeRand, uint64(v)))
}

// RunSeed derives the seed of the index-th run of an experiment matrix from
// a master seed. Because the derivation depends only on (master, index),
// runs may execute in any order — or concurrently — and still reproduce the
// exact sequential results.
func RunSeed(master int64, index int) int64 {
	return deriveSeed(master, streamRun, uint64(index))
}

// hashUnit maps (seed, a, b, k) deterministically to a float64 in (0, 1].
func hashUnit(seed int64, a, b, k int) float64 {
	stream := uint64(streamDelay)
	h := splitmix64(uint64(seed) ^ stream*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(a)<<32 ^ uint64(uint32(b)))
	h = splitmix64(h ^ uint64(k))
	// 53 random bits into (0,1]: (h>>11 + 1) / 2^53
	return (float64(h>>11) + 1) / float64(1<<53)
}
