package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tridiag/internal/lapack"
	"tridiag/internal/simd"
)

// SecularPoint is one secular-phase kernel measurement at secular size k:
// median times for the scalar (forced portable) and SIMD dispatch paths.
type SecularPoint struct {
	K              int
	Dlaed4ScalarUS float64
	Dlaed4SimdUS   float64
	Dlaed4Speedup  float64
	LocalWScalarUS float64
	LocalWSimdUS   float64
	VectScalarUS   float64
	VectSimdUS     float64
	FinishScalarUS float64
	FinishSimdUS   float64
}

// SecularRecord is the output of `dcbench secular`.
type SecularRecord struct {
	SIMDAvailable bool
	Reps          int
	Points        []SecularPoint
}

// secularProblem builds a well-separated secular system of size k: ascending
// poles d, a unit-norm z with no small components, and a positive rho — the
// post-deflation invariants Dlaed4 requires.
func secularProblem(rng *rand.Rand, k int) (d, z []float64, rho float64) {
	d = make([]float64, k)
	z = make([]float64, k)
	acc := 0.0
	var nrm float64
	for i := 0; i < k; i++ {
		acc += 0.1 + rng.Float64()
		d[i] = acc
		z[i] = 0.1 + rng.Float64()
		nrm += z[i] * z[i]
	}
	nrm = math.Sqrt(nrm)
	for i := range z {
		z[i] /= nrm
	}
	return d, z, 0.5 + rng.Float64()
}

// medianTime runs f reps times, timing each run individually (setup callbacks
// run outside the timed region), and returns the median in microseconds.
func medianTime(reps int, setup, f func()) float64 {
	times := make([]float64, 0, reps)
	setup()
	f() // warmup
	for r := 0; r < reps; r++ {
		setup()
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0).Nanoseconds())/1000)
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// Secular benchmarks the secular-phase kernels — all-roots Dlaed4
// (SecularPanel), LocalWPanel, VectorsPanel and FinishW — across k sizes with
// the SIMD kernels forced off and on. The scalar column exercises the
// portable fallbacks the solver uses on non-AVX2 hardware.
func Secular(cfg *Config) (*SecularRecord, error) {
	ks := []int{64, 256, 1024}
	if len(cfg.Sizes) > 0 {
		ks = cfg.Sizes
	}
	reps := 5
	if cfg.Quick {
		reps = 2
	}
	defer simd.SetSIMD(simd.Available())
	rec := &SecularRecord{SIMDAvailable: simd.Available(), Reps: reps}
	if !simd.Available() {
		fmt.Fprintf(cfg.out(), "note: no AVX2+FMA kernels on this platform; both columns run the portable path\n")
	}
	fmt.Fprintf(cfg.out(), "secular kernels, median of %d, scalar / SIMD µs (speedup):\n", reps)
	fmt.Fprintf(cfg.out(), "  %5s  %26s  %22s  %22s  %20s\n", "k", "Dlaed4(all roots)", "ComputeLocalW", "ComputeVect", "FinishW")

	rng := rand.New(rand.NewSource(cfg.seed()))
	for _, k := range ks {
		d, z, rho := secularProblem(rng, k)
		perm := make([]int, k)
		for i := range perm {
			perm[i] = i
		}
		df := &lapack.Deflation{N: k, N1: k / 2, K: k, Rho: rho, Dlamda: d, W: z, GroupToSecular: perm}
		ws := &lapack.MergeWorkspace{S: make([]float64, k*k)}
		dd := make([]float64, k)
		wloc := make([]float64, k)
		what := make([]float64, k)
		var sOrig []float64

		var p SecularPoint
		p.K = k
		for _, mode := range []struct {
			on              bool
			laed4, lw, v, f *float64
		}{
			{false, &p.Dlaed4ScalarUS, &p.LocalWScalarUS, &p.VectScalarUS, &p.FinishScalarUS},
			{true, &p.Dlaed4SimdUS, &p.LocalWSimdUS, &p.VectSimdUS, &p.FinishSimdUS},
		} {
			simd.SetSIMD(mode.on)
			var serr error
			*mode.laed4 = medianTime(reps, func() {}, func() {
				if _, err := df.SecularPanel(ws, dd, 0, k); err != nil {
					serr = err
				}
			})
			if serr != nil {
				return nil, fmt.Errorf("secular k=%d: %w", k, serr)
			}
			sOrig = append(sOrig[:0], ws.S...)
			*mode.lw = medianTime(reps, func() {
				for i := range wloc {
					wloc[i] = 1
				}
			}, func() {
				df.LocalWPanel(ws, wloc, 0, k)
			})
			*mode.f = medianTime(reps, func() {}, func() {
				df.FinishW(what, wloc)
			})
			// VectorsPanel overwrites the delta columns of S in place, so the
			// restore runs outside the timed region.
			*mode.v = medianTime(reps, func() {
				copy(ws.S, sOrig)
			}, func() {
				df.VectorsPanel(ws, what, 0, k)
			})
		}
		if p.Dlaed4SimdUS > 0 {
			p.Dlaed4Speedup = p.Dlaed4ScalarUS / p.Dlaed4SimdUS
		}
		rec.Points = append(rec.Points, p)
		fmt.Fprintf(cfg.out(), "  %5d  %9.1f /%9.1f (%3.1fx)  %8.1f /%8.1f (%3.1fx)  %8.1f /%8.1f (%3.1fx)  %7.1f /%7.1f (%3.1fx)\n",
			k,
			p.Dlaed4ScalarUS, p.Dlaed4SimdUS, p.Dlaed4Speedup,
			p.LocalWScalarUS, p.LocalWSimdUS, ratio(p.LocalWScalarUS, p.LocalWSimdUS),
			p.VectScalarUS, p.VectSimdUS, ratio(p.VectScalarUS, p.VectSimdUS),
			p.FinishScalarUS, p.FinishSimdUS, ratio(p.FinishScalarUS, p.FinishSimdUS))
	}
	return rec, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
