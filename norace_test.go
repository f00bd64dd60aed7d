//go:build !race

package pfg

const raceEnabled = false
