//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops items at random, so a path that marshals through
// encoding/json's pooled buffers has no fixed allocation count.
const raceEnabled = true
