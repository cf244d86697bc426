//go:build race

package wsproto

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation-count pins cannot hold under it.
const raceEnabled = true
