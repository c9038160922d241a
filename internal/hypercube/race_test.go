//go:build race

package hypercube

// raceEnabled reports a -race build, where the fitted-slope sweeps skip.
const raceEnabled = true
