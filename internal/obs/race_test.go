//go:build race

package obs

// raceEnabled reports a race-detector build. Under it sync.Pool.Put
// drops one item in four at random, so the pooled record path
// allocates by design and the zero-allocation pins cannot hold.
const raceEnabled = true
