//go:build race

package dag

func init() { raceEnabled = true }
