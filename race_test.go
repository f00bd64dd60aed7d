//go:build race

package pfg

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops items at random, so a pooled steady state has no fixed
// allocation count.
const raceEnabled = true
