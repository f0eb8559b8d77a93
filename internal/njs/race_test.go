//go:build race

package njs

func init() { raceEnabled = true }
