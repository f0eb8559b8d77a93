//go:build race

package vfs

func init() { raceEnabled = true }
