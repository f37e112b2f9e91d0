//go:build race

package fleet

// raceEnabled reports the race detector, under which sync.Pool drops
// entries at random and allocation pins do not hold.
const raceEnabled = true
