//go:build race

package staging_test

func init() { raceEnabled = true }
