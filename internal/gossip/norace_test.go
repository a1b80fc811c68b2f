//go:build !race

package gossip

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
