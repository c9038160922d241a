//go:build !race

package rounds

// raceEnabled reports a -race build, where the fitted-slope sweeps skip.
const raceEnabled = false
