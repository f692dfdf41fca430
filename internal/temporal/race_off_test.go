//go:build !race

package temporal

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (instrumented pools
// and closures allocate).
const raceEnabled = false
