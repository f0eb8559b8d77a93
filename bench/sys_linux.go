package main

import (
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far: load generator,
// server and garbage collector together, since they share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsKind tells whether dir is memory-backed, which decides whether journal
// syncs in this run waited for a device.
func fsKind(dir string) string {
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if st.Type == tmpfsMagic || uint32(st.Type) == ramfsMagic {
		return "tmpfs"
	}
	return "disk"
}
