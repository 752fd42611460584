//go:build !race

package experiments

// raceEnabled reports a -race build.
const raceEnabled = false
