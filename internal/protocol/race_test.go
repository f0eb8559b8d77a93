//go:build race

package protocol

func init() { raceEnabled = true }
