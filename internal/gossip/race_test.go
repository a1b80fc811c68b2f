//go:build race

package gossip

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so moves exact allocation counts.
const raceEnabled = true
