package audit

// The reference-oracle checks of oracle_test.go, for the external
// tests that need the whole simulated pipeline (which imports this
// package, so an in-package test cannot).
var (
	CheckBehaviorOracle = checkBehaviorOracle
	CheckPoolingOracle  = checkPoolingOracle
)
