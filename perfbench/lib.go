package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"tridiag/eigen"
)

// libWorkers is the lib workloads' solver worker count: one closed-loop
// caller whose solves use both vCPUs of the reference host.
const libWorkers = 2

func libOptions(r request) *eigen.Options {
	return &eigen.Options{Workers: libWorkers, ValuesOnly: r.values}
}

// runStats is what one measured (or traced) run of a workload recorded.
type runStats struct {
	full, values []float64 // latency (ms) of verified requests, per class
	lag          []float64 // generator lag (ms) per request
	cpu          time.Duration
	tally        tally
}

func (st *runStats) addLatency(r request, d time.Duration) {
	if r.values {
		st.values = append(st.values, ms(d))
	} else {
		st.full = append(st.full, ms(d))
	}
}

// libWarmup solves the first requests of stream so that the scratch pool
// holds a full solve's workspace and the heap has grown to its working size.
func libWarmup(w workload, seed int64, stream, first int) error {
	for i := first; i < first+4; i++ {
		r := w.request(seed, stream, i)
		if _, err := eigen.SolveContext(context.Background(), r.t, libOptions(r)); err != nil {
			return fmt.Errorf("warm-up solve %d: %w", i, err)
		}
	}
	return nil
}

// runLib drives the library in-process: one closed-loop caller sends the
// workload's requests back to back for dur, timing each SolveContext call
// and verifying its result after the call's clock has stopped. A closed
// loop's generator lag is the time between finishing one request's
// verification and sending the next (generating its input).
func runLib(w workload, seed int64, dur time.Duration, tr *tracer) (*runStats, error) {
	if err := libWarmup(w, seed, streamWarmup, 0); err != nil {
		return nil, err
	}
	st := &runStats{}
	vrng := requestRNG(seed, streamVerify, 0)
	start := time.Now()
	ready := start
	for idx := 0; time.Since(start) < dur; idx++ {
		r := w.request(seed, streamMeasure, idx)
		sent := time.Now()
		st.lag = append(st.lag, ms(sent.Sub(ready)))
		var res *eigen.Result
		wall, cpu, err := timedCall(func() (err error) {
			res, err = eigen.SolveContext(context.Background(), r.t, libOptions(r))
			return err
		})
		tr.add(idx, "solve", "", r.class(), sent, sent.Add(wall))
		st.cpu += cpu
		if err == nil {
			err = checkResult(r.t, res.Values, res.Vectors, !r.values, vrng)
		}
		st.tally.record(fmt.Sprintf("%s request %d", w.name, idx), err)
		if err == nil {
			st.addLatency(r, wall)
		}
		ready = time.Now()
	}
	return st, nil
}

// setupProbe is the child side of a lib set-up measurement: it generates its
// inputs, warms the library up as a fresh process serving this workload
// would, and prints "ready <input generation nanoseconds>".
func setupProbe(w workload, seed int64, probe int) error {
	t0 := time.Now()
	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i] = w.request(seed, streamSetup, 4*probe+i)
	}
	gen := time.Since(t0)
	for _, r := range reqs {
		if _, err := eigen.SolveContext(context.Background(), r.t, libOptions(r)); err != nil {
			return fmt.Errorf("set-up solve: %w", err)
		}
	}
	fmt.Printf("ready %d\n", gen.Nanoseconds())
	return nil
}

// libSetup measures set-up as a library user pays it: from starting a fresh
// process through its warm-up solves, less the probe's input generation.
func libSetup(w workload, seed int64, probe int) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-probe", strconv.Itoa(probe),
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	el := time.Since(t0)
	var gen int64
	if _, err := fmt.Sscanf(out.String(), "ready %d", &gen); err != nil {
		return 0, fmt.Errorf("set-up probe printed %q", out.String())
	}
	return el - time.Duration(gen), nil
}
