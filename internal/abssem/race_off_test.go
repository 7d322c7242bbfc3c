//go:build !race

package abssem

const raceEnabled = false
