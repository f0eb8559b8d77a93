package main

import (
	"crypto/ed25519"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// calibration is a reading of the machine itself, taken before and after
// every workload: when two days or two machines disagree, these say whether
// the program moved or the machine did.
type calibration struct {
	memmoveMBs float64
	crc64MBs   float64
	verifyPerS float64
	fsyncMs    float64
}

// calibrator owns the buffers and keys of the calibration loops. One lives
// for the whole process: a fresh 8 MiB pair lands on different physical pages
// each time, which alone moves the copy rate by a tenth.
type calibrator struct {
	src, dst []byte
	pub      ed25519.PublicKey
	sig      []byte
	stateDir string
}

const calibSize = 8 << 20 // beyond one core's share of the last-level cache

func newCalibrator(stateDir string) *calibrator {
	c := &calibrator{src: make([]byte, calibSize), dst: make([]byte, calibSize), stateDir: stateDir}
	for i := range c.src {
		c.src[i] = byte(i * 7)
	}
	copy(c.dst, c.src) // fault the pages in before timing
	pub, priv, _ := ed25519.GenerateKey(nil)
	c.pub, c.sig = pub, ed25519.Sign(priv, c.src[:512])
	c.read() // a process that just started reads slow: discard one pass
	return c
}

var sink64 uint64

// read runs the loops: fixed work, a few tens of milliseconds each. Each is
// the fastest of several passes, because the figure is the hardware's and an
// interruption is noise to drop, not to average in. The collector runs first
// so that a workload's leftover heap is not being swept on the other core
// while the loops are timed.
func (c *calibrator) read() calibration {
	runtime.GC()
	var out calibration
	out.memmoveMBs = calibSize / (1 << 20) / fastest(16, func() { copy(c.dst, c.src) })
	out.crc64MBs = calibSize / (1 << 20) / fastest(3, func() { sink64 = crc64.Checksum(c.src, crcTable) })
	const verifies = 100
	out.verifyPerS = verifies / fastest(10, func() {
		for i := 0; i < verifies; i++ {
			if !ed25519.Verify(c.pub, c.src[:512], c.sig) {
				panic("bench: ed25519 self-check failed")
			}
		}
	})
	out.fsyncMs = fsyncP50(c.stateDir)
	return out
}

// fastest returns the shortest of reps timings of fn, in seconds.
func fastest(reps int, fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		t := time.Now()
		fn()
		best = math.Min(best, time.Since(t).Seconds())
	}
	return best
}

// fsyncP50 is the median time of a 1.5 KB append plus fsync in the state
// directory: near zero on tmpfs, the device's commit latency on disk.
func fsyncP50(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return math.NaN()
	}
	defer func() {
		_ = f.Close() // a scratch file: only the sync timings matter
		os.Remove(f.Name())
	}()
	buf := make([]byte, 1500)
	var d []float64
	for i := 0; i < 25; i++ {
		if _, err := f.Write(buf); err != nil {
			return math.NaN()
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			return math.NaN()
		}
		d = append(d, time.Since(t).Seconds()*1e3)
	}
	sort.Float64s(d)
	return d[len(d)/2]
}

// drift is the largest relative change of the three processor and memory
// loops between the two readings, in percent. The fsync time is reported but
// left out: it belongs to the device under the state directory, reads a few
// hundred nanoseconds on tmpfs, and on a shared disk moves by a quarter from
// one minute to the next with nothing wrong.
func drift(a, b calibration) float64 {
	rel := func(x, y float64) float64 { return math.Abs(y-x) / x * 100 }
	d := math.Max(rel(a.memmoveMBs, b.memmoveMBs), rel(a.crc64MBs, b.crc64MBs))
	return math.Max(d, rel(a.verifyPerS, b.verifyPerS))
}

func (c calibration) mean(o calibration) calibration {
	return calibration{
		memmoveMBs: (c.memmoveMBs + o.memmoveMBs) / 2,
		crc64MBs:   (c.crc64MBs + o.crc64MBs) / 2,
		verifyPerS: (c.verifyPerS + o.verifyPerS) / 2,
		fsyncMs:    (c.fsyncMs + o.fsyncMs) / 2,
	}
}
