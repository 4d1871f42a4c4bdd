//go:build race

package cluster

func init() { raceEnabled = true }
