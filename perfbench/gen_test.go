package main

import (
	"context"
	"slices"
	"testing"

	"tridiag/internal/core"
)

// TestWorkloadDeflationRegimes pins each lib workload's deflation regime at
// its workload size: perturbed Legendre deflates almost nothing, glued
// Wilkinson W21 deflates most of every merge.
func TestWorkloadDeflationRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("solves n=1200 and n=2000 matrices")
	}
	for _, tc := range []struct {
		name   string
		lo, hi float64
	}{{"lib-lowdefl", 0, 0.05}, {"lib-highdefl", 0.75, 1}} {
		w := workloads[tc.name]
		for _, seed := range []int64{1, 2} {
			r := w.request(seed, streamMeasure, 0)
			n := r.t.N()
			d := slices.Clone(r.t.D)
			e := slices.Clone(r.t.E)
			res, err := core.SolveDCContext(context.Background(), n, d, e, make([]float64, n*n), n, &core.Options{Workers: libWorkers})
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if got := res.Stats.DeflationRatio(); got < tc.lo || got > tc.hi {
				t.Errorf("%s seed %d: deflation ratio %.3f outside [%v, %v]", tc.name, seed, got, tc.lo, tc.hi)
			}
		}
	}
}

func TestRequestsAreSeededAndDistinct(t *testing.T) {
	for name, w := range workloads {
		a := w.request(3, streamMeasure, 5)
		if b := w.request(3, streamMeasure, 5); !slices.Equal(a.t.D, b.t.D) || !slices.Equal(a.t.E, b.t.E) || a.values != b.values {
			t.Errorf("%s: the same seed and index gave different requests", name)
		}
		for _, other := range []request{w.request(3, streamMeasure, 6), w.request(4, streamMeasure, 5), w.request(3, streamWarmup, 5)} {
			if slices.Equal(a.t.D, other.t.D) && slices.Equal(a.t.E, other.t.E) {
				t.Errorf("%s: two different requests carry the same matrix", name)
			}
		}
	}
}
