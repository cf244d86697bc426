//go:build !race

package audit_test

const raceEnabled = false
