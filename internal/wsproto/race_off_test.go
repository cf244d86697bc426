//go:build !race

package wsproto

const raceEnabled = false
