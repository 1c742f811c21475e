//go:build race

package trace

// raceEnabled reports whether the race detector is compiled in. Allocation
// assertions skip themselves under it: sync.Pool then drops items at random.
const raceEnabled = true
