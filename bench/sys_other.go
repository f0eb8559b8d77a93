//go:build !linux

package main

import "time"

// The benchmark's CPU and memory figures come from Linux getrusage and
// statfs; elsewhere the package builds but those metrics read zero and the
// run reports itself incorrect.

func cpuTime() time.Duration { return 0 }

func peakRSSMB() float64 { return 0 }

func fsKind(string) string { return "unknown" }
