//go:build !race

package tm_test

const raceEnabled = false
