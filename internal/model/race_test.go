//go:build race

package model

// The race detector makes sync.Pool drop items at random, so pooled
// scratch state allocates again under -race.
func init() { raceEnabled = true }
