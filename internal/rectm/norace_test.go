//go:build !race

package rectm_test

const raceEnabled = false
