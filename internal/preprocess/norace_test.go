//go:build !race

package preprocess

const raceEnabled = false
