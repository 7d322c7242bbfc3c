package explore

import "psa/internal/sem"

// fpSet is the fingerprint-mode visited set: a sharded, power-of-two,
// open-addressed (linear-probe) hash set of 128-bit state fingerprints.
// Compared with map[sem.Key]bool it retains 16 bytes per state instead of
// the full canonical encoding (typically hundreds of bytes) and inserts
// without allocating, which is the Holzmann hash-compaction trade the
// explorers' default key mode makes (see sem.Fingerprint for the
// collision-probability argument).
//
// Deduplication runs only in the explorers' serial sections — the
// parallel explorer consults the visited set exclusively from its
// serial own chain, in sequential task order — so the set needs no
// locking. Sharding
// by the fingerprint's top bits keeps individual probe arrays small, so
// a resize rehashes 1/16 of the set instead of all of it.
type fpSet struct {
	shards [fpShardCount]fpShard
	n      int
}

const (
	fpShardCount = 16
	fpInitSlots  = 64 // initial slots per shard; always a power of two
)

type fpShard struct {
	slots [][2]uint64 // open addressing; the all-zero slot means empty
	used  int
}

// add inserts fp and reports whether it was absent. The all-zero bit
// pattern marks empty slots, so a (vanishingly unlikely) zero fingerprint
// is deterministically remapped to {0,1} — one more fused pair on top of
// the inherent 2⁻¹²⁸-per-pair collision budget.
func (s *fpSet) add(fp sem.Fingerprint) bool {
	hi, lo := fp.Hi, fp.Lo
	if hi == 0 && lo == 0 {
		lo = 1
	}
	sh := &s.shards[hi>>(64-4)]
	if sh.slots == nil {
		sh.slots = make([][2]uint64, fpInitSlots)
	} else if (sh.used+1)*4 > len(sh.slots)*3 {
		sh.grow()
	}
	if sh.insert(hi, lo) {
		s.n++
		return true
	}
	return false
}

// insert probes for (hi, lo) and claims the first empty slot; reports
// whether a new entry was written. The caller guarantees a free slot
// (load factor ≤ 3/4), so the probe loop always terminates.
func (sh *fpShard) insert(hi, lo uint64) bool {
	mask := uint64(len(sh.slots) - 1)
	for i := lo & mask; ; i = (i + 1) & mask {
		sl := &sh.slots[i]
		if sl[0] == 0 && sl[1] == 0 {
			sl[0], sl[1] = hi, lo
			sh.used++
			return true
		}
		if sl[0] == hi && sl[1] == lo {
			return false
		}
	}
}

func (sh *fpShard) grow() {
	old := sh.slots
	sh.slots = make([][2]uint64, 2*len(old))
	sh.used = 0
	for _, sl := range old {
		if sl[0] != 0 || sl[1] != 0 {
			sh.insert(sl[0], sl[1])
		}
	}
}

// len is the number of distinct fingerprints inserted.
func (s *fpSet) len() int { return s.n }

// bytes is the memory retained by the probe arrays.
func (s *fpSet) bytes() int64 {
	var b int64
	for i := range s.shards {
		b += int64(cap(s.shards[i].slots)) * 16
	}
	return b
}
