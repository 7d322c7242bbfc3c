package explore

import (
	"hash/maphash"
	"sync"

	"psa/internal/sem"
)

// fpSet is the fingerprint-mode claim table: a sharded, power-of-two,
// open-addressed (linear-probe) hash table from 128-bit state
// fingerprints to the smallest claim (see claimID) any transition has
// made on the state. Compared with map[sem.Key]bool it retains 24 bytes
// per state instead of the full canonical encoding (typically hundreds
// of bytes) and claims without allocating, which is the Holzmann
// hash-compaction trade the explorer's default key mode makes (see
// sem.Fingerprint for the collision-probability argument).
//
// Expanding workers claim concurrently, so each shard has its own lock;
// sharding by the fingerprint's top bits also keeps individual probe
// arrays small, so a resize rehashes 1/16 of the table instead of all of
// it.
type fpSet struct {
	shards [fpShardCount]fpShard
}

const (
	fpShardCount = 16
	fpInitSlots  = 64 // initial slots per shard; always a power of two
)

type fpShard struct {
	mu    sync.Mutex
	slots []fpSlot // open addressing; the all-zero fingerprint means empty
	used  int
	_     [64 - 8 - 24 - 8]byte // one shard per cache line
}

type fpSlot struct{ hi, lo, claim uint64 }

// fpSlotBytes is the memory one slot retains.
const fpSlotBytes = 24

// claim records id as a claim on fp and reports whether id is now the
// smallest claim on it: true for the first claim and for any claim below
// the current one, false when an earlier transition already holds it.
// The all-zero bit pattern marks empty slots, so a (vanishingly
// unlikely) zero fingerprint is deterministically remapped to {0,1} —
// one more fused pair on top of the inherent 2⁻¹²⁸-per-pair collision
// budget.
func (s *fpSet) claim(fp sem.Fingerprint, id uint64) bool {
	hi, lo := fpWords(fp)
	sh := &s.shards[hi>>(64-4)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.slots == nil {
		sh.slots = make([]fpSlot, fpInitSlots)
	} else if (sh.used+1)*4 > len(sh.slots)*3 {
		sh.grow()
	}
	sl, found := sh.find(hi, lo)
	switch {
	case !found:
		*sl = fpSlot{hi, lo, id}
		sh.used++
	case id < sl.claim:
		sl.claim = id
	default:
		return false
	}
	return true
}

// owner returns the smallest claim on fp, which must have been claimed.
func (s *fpSet) owner(fp sem.Fingerprint) uint64 {
	hi, lo := fpWords(fp)
	sh := &s.shards[hi>>(64-4)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sl, _ := sh.find(hi, lo)
	return sl.claim
}

func fpWords(fp sem.Fingerprint) (hi, lo uint64) {
	if fp.Hi == 0 && fp.Lo == 0 {
		return 0, 1
	}
	return fp.Hi, fp.Lo
}

// find probes for (hi, lo) and returns its slot, or the empty slot where
// it belongs. The caller holds the lock and guarantees a free slot (load
// factor ≤ 3/4), so the probe loop always terminates.
func (sh *fpShard) find(hi, lo uint64) (*fpSlot, bool) {
	mask := uint64(len(sh.slots) - 1)
	for i := lo & mask; ; i = (i + 1) & mask {
		sl := &sh.slots[i]
		if sl.hi == hi && sl.lo == lo {
			return sl, true
		}
		if sl.hi == 0 && sl.lo == 0 {
			return sl, false
		}
	}
}

func (sh *fpShard) grow() {
	old := sh.slots
	sh.slots = make([]fpSlot, 2*len(old))
	for _, sl := range old {
		if sl.hi != 0 || sl.lo != 0 {
			dst, _ := sh.find(sl.hi, sl.lo)
			*dst = sl
		}
	}
}

// len is the number of distinct fingerprints claimed.
func (s *fpSet) len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.used
		sh.mu.Unlock()
	}
	return n
}

// bytes is the memory retained by the probe arrays.
func (s *fpSet) bytes() int64 {
	var b int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		b += int64(cap(sh.slots)) * fpSlotBytes
		sh.mu.Unlock()
	}
	return b
}

// keySet is the exact-mode claim table: canonical keys to their smallest
// claim, in maps sharded by a hash of the key so concurrent claims
// rarely share a lock.
type keySet struct {
	shards [keyShardCount]keyShard
}

const keyShardCount = 16

type keyShard struct {
	mu     sync.Mutex
	claims map[sem.Key]uint64
	bytes  int64
}

// visitedKeyOverhead approximates the exact map's per-entry bookkeeping
// beyond the key bytes themselves (string header, claim, bucket slot),
// for the visited_bytes gauge.
const visitedKeyOverhead = 56

var keyShardSeed = maphash.MakeSeed()

func (s *keySet) shard(k sem.Key) *keyShard {
	return &s.shards[maphash.String(keyShardSeed, string(k))%keyShardCount]
}

// claim is fpSet.claim for exact keys.
func (s *keySet) claim(k sem.Key, id uint64) bool {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.claims == nil {
		sh.claims = map[sem.Key]uint64{}
	}
	old, ok := sh.claims[k]
	if ok && old < id {
		return false
	}
	sh.claims[k] = id
	if !ok {
		sh.bytes += int64(len(k)) + visitedKeyOverhead
	}
	return true
}

func (s *keySet) owner(k sem.Key) uint64 {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.claims[k]
}

func (s *keySet) bytes() int64 {
	var b int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		b += sh.bytes
		sh.mu.Unlock()
	}
	return b
}
