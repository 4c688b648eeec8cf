//go:build race

package fsserve_test

// raceDetector reports a build with the race detector, which drops some
// of what goes back to a sync.Pool at random: allocation counts of pooled
// paths mean nothing there.
const raceDetector = true
