//go:build race

package rectm_test

const raceEnabled = true
