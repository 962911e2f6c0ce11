package main

import (
	"math"
	"math/rand"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before the
// benchmark reports it: a p90 needs at least 100 samples.
const minBeyond = 10

// tailSupported reports whether n samples support percentile p (0 < p < 1),
// i.e. at least minBeyond of them lie beyond it.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// highestTail returns the highest of the conventional percentiles that n
// samples support, or 0 when n is too small even for the median.
func highestTail(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if tailSupported(n, p) {
			return p
		}
	}
	return 0
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (Hyndman–Fan type 7). xs need not be sorted; it is not
// modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr returns the interquartile range of xs.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openSample is one open-loop request. due is when the schedule said to send
// it, sent when the generator actually handed it to the transport, done when
// the last response byte arrived; all are offsets from the run's start.
type openSample struct {
	due, sent, done time.Duration
}

// latency is measured from the due time, so a generator or connection stall
// that delays later requests is charged to them.
func (s openSample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator ran for this request.
func (s openSample) lag() time.Duration { return s.sent - s.due }

// poissonSchedule returns the due times of Poisson arrivals at rate per
// second over [0, horizon).
func poissonSchedule(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return due
		}
		due = append(due, d)
	}
}

// processCPU returns the CPU time (user + system) this process has used,
// across all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedCall runs f and returns its wall and CPU time. Both clocks are read
// immediately around the call, so work done after it returns (verifying the
// result) is charged to neither.
func timedCall(f func() error) (wall, cpu time.Duration, err error) {
	c0 := processCPU()
	t0 := time.Now()
	err = f()
	wall = time.Since(t0)
	cpu = processCPU() - c0
	return wall, cpu, err
}
