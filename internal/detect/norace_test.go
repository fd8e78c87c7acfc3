//go:build !race

package detect

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
