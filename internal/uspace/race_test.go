//go:build race

package uspace

func init() { raceEnabled = true }
