package main

import (
	"math/rand"
	"slices"
	"time"
)

// The benchmark runs on a share of a machine whose speed drifts with its
// neighbours' load: for minutes at a time, the same code runs a fifth or
// more slower, in every layer alike, so no choice of statistic within
// one run hides it. Every untraced run therefore also times a fixed
// reference job that calls no program code, in short pauses spread over
// the run, and reports set-up and closed-loop answer times at the
// reference speed: a measured time is divided by the host factor (the
// job's median time over the run, divided by refJobMs) and a rate is
// multiplied by it. Sorting was the job whose time tracked the workloads'
// best among those tried (a sort, a column sum larger than the L2 cache,
// small matrix products); in ten-seed sets on a noisy host it cut the
// quartile spread of flights-scan ask_p50_ms from 13% to 6% and of
// dob-voice's from 26% to 16%. The factor and the raw figures are printed
// before the result line.

const (
	// refJobMs is the job's median time at the reference speed, about
	// its median on a 2-vCPU x86 VM (Xeon, KVM). It sets the scale of
	// every reported time and must not change.
	refJobMs = 0.8
	// calKeys is how many keys the job sorts: 64 KiB, within L2.
	calKeys = 1 << 13
	// calInterval is how often a closed loop pauses to time the job.
	calInterval = 200 * time.Millisecond
	// calBurst is how many jobs a burst times back to back.
	calBurst = 40
)

// calibrator times the reference job: copying and sorting calKeys
// pseudo-random keys. A job allocates nothing, so it does not change when
// the program's garbage collector runs.
type calibrator struct {
	keys, buf []uint64
	times     []float64
	last      time.Time
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{keys: make([]uint64, calKeys), buf: make([]uint64, calKeys)}
	for i := range c.keys {
		c.keys[i] = rng.Uint64()
	}
	return c
}

// sample times the job once.
func (c *calibrator) sample() {
	t0 := time.Now()
	copy(c.buf, c.keys)
	slices.Sort(c.buf)
	c.last = time.Now()
	c.times = append(c.times, ms(c.last.Sub(t0)))
}

// tick times the job if calInterval has passed since the last time.
func (c *calibrator) tick() {
	if time.Since(c.last) >= calInterval {
		c.sample()
	}
}

// burst times the job calBurst times.
func (c *calibrator) burst() {
	for i := 0; i < calBurst; i++ {
		c.sample()
	}
}

// factor is how much slower than the reference speed the host ran the
// job over the run.
func (c *calibrator) factor() float64 {
	return median(c.times) / refJobMs
}
