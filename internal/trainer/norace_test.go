//go:build !race

package trainer

const raceEnabled = false
