//go:build !race

package fsserve_test

const raceDetector = false
