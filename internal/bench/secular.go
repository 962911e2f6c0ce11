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
// Dlaed4Delta solves all k roots writing each root's delta column, as
// lapack.Dlaed4's callers get it; Dlaed4 solves them as the solver's LAED4
// task does, recording (org, tau) per root and no column. LocalW, Vect and
// UpdateZ are the tasks that read those roots: ComputeLocalW, ComputeVect
// and the values-only UpdateZ.
type SecularPoint struct {
	K                   int
	Dlaed4DeltaScalarUS float64
	Dlaed4DeltaSimdUS   float64
	Dlaed4ScalarUS      float64
	Dlaed4SimdUS        float64
	LocalWScalarUS      float64
	LocalWSimdUS        float64
	VectScalarUS        float64
	VectSimdUS          float64
	UpdateZScalarUS     float64
	UpdateZSimdUS       float64
	// EvalsPerRoot is the mean number of secular-function evaluations per
	// root (the same on both dispatch paths).
	EvalsPerRoot float64
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

// Secular benchmarks the secular-phase kernels across k sizes with the SIMD
// kernels forced off and on: all-roots Dlaed4 with and without a delta
// column, then LocalWPanel, VectorsPanel and UpdateZPanelVO from the roots'
// (org, tau). The scalar column exercises the portable fallbacks the solver
// uses on non-AVX2 hardware.
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
	fmt.Fprintf(cfg.out(), "  %5s  %24s  %24s  %22s  %22s  %22s  %6s\n", "k",
		"Dlaed4(all, delta)", "Dlaed4(all, org+tau)", "ComputeLocalW", "ComputeVect", "UpdateZ", "evals")

	rng := rand.New(rand.NewSource(cfg.seed()))
	for _, k := range ks {
		d, z, rho := secularProblem(rng, k)
		perm := make([]int, k)
		for i := range perm {
			perm[i] = i
		}
		df := &lapack.Deflation{N: k, N1: k / 2, K: k, Rho: rho, Dlamda: d, W: z, GroupToSecular: perm}
		s := make([]float64, k*k)
		dd := make([]float64, k)
		porg, ptau := make([]float64, k), make([]float64, k)
		wloc := make([]float64, k)
		what, poles := make([]float64, k), make([]float64, k)
		gtop, gbot := make([]float64, k), make([]float64, k)
		for i := range gtop {
			gtop[i], gbot[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
		}
		flp := make([]float64, 2*k)

		p := SecularPoint{K: k}
		for _, mode := range []struct {
			on           bool
			delta, laed4 *float64
			lw, v, updz  *float64
		}{
			{false, &p.Dlaed4DeltaScalarUS, &p.Dlaed4ScalarUS, &p.LocalWScalarUS, &p.VectScalarUS, &p.UpdateZScalarUS},
			{true, &p.Dlaed4DeltaSimdUS, &p.Dlaed4SimdUS, &p.LocalWSimdUS, &p.VectSimdUS, &p.UpdateZSimdUS},
		} {
			simd.SetSIMD(mode.on)
			var serr error
			*mode.delta = medianTime(reps, func() {}, func() {
				for j := 0; j < k; j++ {
					if _, err := lapack.Dlaed4(k, j, d, z, s[j*k:j*k+k], rho); err != nil {
						serr = err
					}
				}
			})
			var evals int
			*mode.laed4 = medianTime(reps, func() {}, func() {
				ne, _, err := df.SecularPanel(dd, porg, ptau, 0, k)
				if err != nil {
					serr = err
				}
				evals = ne
			})
			if serr != nil {
				return nil, fmt.Errorf("secular k=%d: %w", k, serr)
			}
			p.EvalsPerRoot = float64(evals) / float64(k)
			*mode.lw = medianTime(reps, func() {
				for i := range wloc {
					wloc[i] = 1
				}
			}, func() {
				df.LocalWPanel(porg, ptau, wloc, 0, k)
			})
			df.FinishW(what, poles, wloc)
			*mode.v = medianTime(reps, func() {}, func() {
				df.VectorsPanel(s, what, poles, porg, ptau, 0, k)
			})
			*mode.updz = medianTime(reps, func() {}, func() {
				df.UpdateZPanelVO(what, poles, porg, ptau, gtop, gbot, flp, 0, k)
			})
		}
		rec.Points = append(rec.Points, p)
		fmt.Fprintf(cfg.out(), "  %5d  %7.1f /%7.1f (%3.1fx)  %7.1f /%7.1f (%3.1fx)  %6.1f /%6.1f (%3.1fx)  %6.1f /%6.1f (%3.1fx)  %6.1f /%6.1f (%3.1fx)  %6.2f\n",
			k,
			p.Dlaed4DeltaScalarUS, p.Dlaed4DeltaSimdUS, ratio(p.Dlaed4DeltaScalarUS, p.Dlaed4DeltaSimdUS),
			p.Dlaed4ScalarUS, p.Dlaed4SimdUS, ratio(p.Dlaed4ScalarUS, p.Dlaed4SimdUS),
			p.LocalWScalarUS, p.LocalWSimdUS, ratio(p.LocalWScalarUS, p.LocalWSimdUS),
			p.VectScalarUS, p.VectSimdUS, ratio(p.VectScalarUS, p.VectSimdUS),
			p.UpdateZScalarUS, p.UpdateZSimdUS, ratio(p.UpdateZScalarUS, p.UpdateZSimdUS),
			p.EvalsPerRoot)
	}
	return rec, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
