//go:build race

package preprocess

// raceEnabled reports the race detector, under which sync.Pool drops
// entries at random and allocation pins do not hold.
const raceEnabled = true
