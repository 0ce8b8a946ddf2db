//go:build race

package runner

// raceDetector reports a -race build, whose instrumented kernel runs
// about ten times slower; heavy matrix tests trim their scope under it.
const raceDetector = true
