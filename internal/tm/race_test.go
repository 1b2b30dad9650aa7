//go:build race

package tm_test

const raceEnabled = true
