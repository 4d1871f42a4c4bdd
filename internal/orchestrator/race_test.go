//go:build race

package orchestrator

func init() { raceEnabled = true }
