//go:build race

package collector

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation-count guards cannot hold under it.
const raceEnabled = true
