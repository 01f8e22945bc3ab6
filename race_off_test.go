//go:build !race

package queenbee

const raceEnabled = false
