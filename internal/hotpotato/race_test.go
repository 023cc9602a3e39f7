//go:build race

package hotpotato

func init() { raceEnabled = true }
