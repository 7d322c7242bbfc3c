package explore

import (
	"fmt"
	"sync"
	"testing"

	"psa/internal/sem"
)

// splitmix64 gives the test a cheap stream of well-distributed 128-bit
// values without depending on the production hash lanes.
func fpAt(i uint64) sem.Fingerprint {
	next := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	return sem.Fingerprint{Hi: next(2*i + 1), Lo: next(2*i + 2)}
}

func TestFPSetAddAndDedup(t *testing.T) {
	var s fpSet
	const n = 10_000 // forces several grows past the 64-slot shards
	for i := uint64(0); i < n; i++ {
		if !s.claim(fpAt(i), n+i) {
			t.Fatalf("fresh fingerprint %d reported as duplicate", i)
		}
	}
	if s.len() != n {
		t.Fatalf("len = %d, want %d", s.len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if s.claim(fpAt(i), 2*n+i) {
			t.Fatalf("duplicate fingerprint %d reported as fresh", i)
		}
	}
	if s.len() != n {
		t.Fatalf("len changed on duplicate inserts: %d", s.len())
	}
	// An earlier claim arriving late takes the state over, and survives
	// the grows in between.
	for i := uint64(0); i < n; i++ {
		if !s.claim(fpAt(i), i) {
			t.Fatalf("earlier claim on fingerprint %d refused", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		if got := s.owner(fpAt(i)); got != i {
			t.Fatalf("owner of fingerprint %d = %d, want %d", i, got, i)
		}
	}
	if s.len() != n {
		t.Fatalf("len changed on re-claims: %d", s.len())
	}
}

// The all-zero pattern marks empty slots, so a zero fingerprint must be
// remapped deterministically — inserted once, deduplicated after, and
// fused with {0,1} by construction.
func TestFPSetZeroFingerprint(t *testing.T) {
	var s fpSet
	if !s.claim(sem.Fingerprint{}, 1) {
		t.Fatal("zero fingerprint not inserted")
	}
	if s.claim(sem.Fingerprint{}, 2) {
		t.Fatal("zero fingerprint not deduplicated")
	}
	if s.claim(sem.Fingerprint{Hi: 0, Lo: 1}, 3) {
		t.Fatal("{0,1} must alias the remapped zero fingerprint")
	}
	if s.len() != 1 {
		t.Fatalf("len = %d, want 1", s.len())
	}
}

// Colliding probe sequences (same Lo, different Hi) must stay distinct
// entries: the probe compares both words.
func TestFPSetProbeCollisions(t *testing.T) {
	var s fpSet
	const sameLo = 42
	for hi := uint64(1); hi <= 100; hi++ {
		if !s.claim(sem.Fingerprint{Hi: hi << 32, Lo: sameLo}, hi) {
			t.Fatalf("colliding-probe fingerprint hi=%d dropped", hi)
		}
	}
	if s.len() != 100 {
		t.Fatalf("len = %d, want 100", s.len())
	}
}

func TestFPSetBytes(t *testing.T) {
	var s fpSet
	if s.bytes() != 0 {
		t.Fatalf("empty set reports %d bytes", s.bytes())
	}
	for i := uint64(0); i < 1000; i++ {
		s.claim(fpAt(i), i)
	}
	b := s.bytes()
	if b < int64(s.len()*fpSlotBytes) {
		t.Fatalf("bytes = %d, below the %d bytes the entries alone need", b, s.len()*fpSlotBytes)
	}
	// Load factor ≥ 3/8 after growth doubling: no more than ~2.7 slots
	// per entry, plus slack for sparsely hit shards early on.
	if b > int64(s.len()*fpSlotBytes*4) {
		t.Fatalf("bytes = %d for %d entries: table is implausibly sparse", b, s.len())
	}
}

// Concurrent claims in any arrival order must leave every state owned by
// its smallest claim, and exactly one claimant per state — the smallest
// — must see its last claim succeed after all others (what the merge's
// freshness verdict reads), in both key modes.
func TestClaimTableConcurrent(t *testing.T) {
	const states, claimants = 500, 4
	for _, exact := range []bool{false, true} {
		v := newVisited(exact)
		ident := func(i uint64) (sem.Key, sem.Fingerprint) {
			if exact {
				return sem.Key(fmt.Sprint("state-", i)), sem.Fingerprint{}
			}
			return "", fpAt(i)
		}
		var wg sync.WaitGroup
		for w := 0; w < claimants; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each claimant sweeps the states in its own order and
				// claims each with id state*claimants+w.
				for k := uint64(0); k < states; k++ {
					i := (k*7 + uint64(w)*131) % states
					key, fp := ident(i)
					v.claim(key, fp, i*claimants+uint64(w))
				}
			}(w)
		}
		wg.Wait()
		for i := uint64(0); i < states; i++ {
			key, fp := ident(i)
			if got, want := v.owner(key, fp), i*claimants; got != want {
				t.Fatalf("exact=%v: owner of state %d = %d, want %d", exact, i, got, want)
			}
			if v.claim(key, fp, i*claimants+1) {
				t.Fatalf("exact=%v: a later claim on state %d succeeded", exact, i)
			}
		}
	}
}
