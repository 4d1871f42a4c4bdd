//go:build race

package hv_test

func init() { raceEnabled = true }
