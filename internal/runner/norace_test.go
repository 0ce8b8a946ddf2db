//go:build !race

package runner

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
