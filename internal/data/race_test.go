//go:build race

package data

// raceEnabled reports the race detector, under which sync.Pool drops
// entries at random and allocation pins loosen.
const raceEnabled = true
