//go:build !race

package memmodel_test

// raceEnabled reports whether the test binary was built with the race
// detector, whose instrumentation allocates on its own.
const raceEnabled = false
