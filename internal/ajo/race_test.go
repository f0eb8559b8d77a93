//go:build race

package ajo

func init() { raceEnabled = true }
