//go:build race

package shell

func init() { raceEnabled = true }
