//go:build race

package hypertp_test

func init() { raceEnabled = true }
