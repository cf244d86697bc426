//go:build !race

package ipmeta

const raceEnabled = false
