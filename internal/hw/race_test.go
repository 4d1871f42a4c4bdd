//go:build race

package hw

func init() { raceEnabled = true }
