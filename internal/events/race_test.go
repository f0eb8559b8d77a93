//go:build race

package events

func init() { raceEnabled = true }
