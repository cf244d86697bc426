//go:build race

package ipmeta

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation-count pins cannot hold under it.
const raceEnabled = true
