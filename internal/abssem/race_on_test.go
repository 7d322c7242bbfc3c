//go:build race

package abssem

// raceEnabled gates allocation-count assertions: race instrumentation
// adds bookkeeping allocations, and sync.Pool drops items at random.
const raceEnabled = true
