//go:build !race

package gcn

const raceEnabled = false
