//go:build race

package live

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a random quarter of Puts, so allocation pins that count on the wire
// free list skip themselves.
const raceEnabled = true
