//go:build race

package main

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates and makes sync.Pool drop items at random,
// so allocation counts do not repeat.
const raceEnabled = true
