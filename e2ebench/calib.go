package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// refCalibration is what one calibration takes on the reference host,
// the 2-vCPU Xeon README.md reports its first numbers from. Every
// end-to-end timing is scaled to that speed (see speed).
const refCalibration = 20 * time.Millisecond

const (
	calibLen    = 1 << 15 // values sorted per round and worker
	calibKeys   = 1 << 13 // distinct map keys per round and worker
	calibRounds = 4
)

// calibrator measures how fast the host runs right now, with a fixed
// piece of work that shares no code with the program: on each worker
// goroutine at once, fill a buffer with pseudo-random values, count them
// into a map and sort them. Its buffers and maps are allocated once, so
// a round allocates nothing and neither triggers nor waits for a
// collection: what the program leaves on the heap cannot change it.
//
// The machines this benchmark runs on are shared, and their speed drifts
// by tens of percent over seconds. Scaling each repetition by the
// calibrations just before and after it takes that drift out of the
// end-to-end timings and leaves what the program itself changes.
type calibrator struct {
	bufs [][]uint64
	maps []map[uint64]uint64
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{}
	for range workers {
		c.bufs = append(c.bufs, make([]uint64, calibLen))
		c.maps = append(c.maps, make(map[uint64]uint64, calibKeys))
	}
	return c
}

// measure finishes any collection the measured work left running, so
// that the calibration runs alone, and returns the calibration's wall
// time.
func (c *calibrator) measure() time.Duration {
	runtime.GC()
	t := time.Now()
	var wg sync.WaitGroup
	for w := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibWork(c.bufs[w], c.maps[w])
		}()
	}
	wg.Wait()
	return time.Since(t)
}

func calibWork(xs []uint64, m map[uint64]uint64) {
	x := uint64(1)
	for range calibRounds {
		for i := range xs {
			// splitmix64
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			xs[i] = z ^ z>>31
			m[xs[i]%calibKeys] += uint64(i)
		}
		slices.Sort(xs)
		clear(m)
	}
}

// speed is the factor that scales a time measured between two
// calibrations to the reference host's speed. The faster of the two
// calibrations stands for the host's speed: a calibration can only be
// slowed by what else the host runs.
func speed(before, after time.Duration) float64 {
	return float64(refCalibration) / float64(min(before, after))
}
