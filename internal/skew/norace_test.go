//go:build !race

package skew

// raceEnabled reports a -race build, where the fitted-slope sweeps skip.
const raceEnabled = false
