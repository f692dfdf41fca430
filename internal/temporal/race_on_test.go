//go:build race

package temporal

const raceEnabled = true
