package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tridiag/eigen"
	"tridiag/eigen/cluster"
)

// TestVerifierCountsCorruptionAsFailure: one perturbed eigenvalue, one
// corrupted eigenvector column and one response whose values no longer
// match their seal each count as a failed request; the clean result passes.
func TestVerifierCountsCorruptionAsFailure(t *testing.T) {
	const n = 300
	r := request{t: perturbedLegendre(n, requestRNG(1, streamMeasure, 0))}
	res, err := eigen.Solve(r.t, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var tl tally

	err = checkResult(r.t, res.Values, res.Vectors, true, rng)
	if err != nil {
		t.Errorf("clean result rejected: %v", err)
	}
	tl.record("clean", err)

	w := slices.Clone(res.Values)
	w[137] += 1e-6
	err = checkResult(r.t, w, nil, false, rng)
	if err == nil {
		t.Errorf("perturbed eigenvalue accepted")
	}
	tl.record("perturbed eigenvalue", err)

	v := slices.Clone(res.Vectors)
	v[42*n+17] += 1e-6
	err = checkResult(r.t, res.Values, v, true, rng)
	if err == nil {
		t.Errorf("corrupted eigenvector column accepted")
	}
	tl.record("corrupted column", err)

	sealed := cluster.SolveResponse{N: n, Values: res.Values, Checksum: cluster.SpectrumChecksum(res.Values)}
	good, _ := json.Marshal(sealed)
	if err := checkResponse(r, good, false, rng); err != nil {
		t.Errorf("sealed response rejected: %v", err)
	}
	sealed.Values = slices.Clone(res.Values)
	sealed.Values[3] = math.Nextafter(sealed.Values[3], math.Inf(1))
	bad, _ := json.Marshal(sealed)
	err = checkResponse(r, bad, false, rng)
	if err == nil {
		t.Errorf("response altered after sealing accepted")
	}
	tl.record("altered response", err)

	if tl.attempted != 4 || tl.failed != 3 || tl.successRate() != 0.25 {
		t.Errorf("tally: %d attempted, %d failed, success rate %v; want 4, 3, 0.25",
			tl.attempted, tl.failed, tl.successRate())
	}
}

func TestSturmCountsMatchKnownSpectrum(t *testing.T) {
	// The 1-2-1 matrix has eigenvalues 2 − 2cos(kπ/(n+1)).
	const n = 37
	d, e := make([]float64, n), make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = 1
	}
	w := make([]float64, n)
	for k := range w {
		w[k] = 2 - 2*math.Cos(float64(k+1)*math.Pi/(n+1))
	}
	if err := checkSpectrum(eigen.Tridiagonal{D: d, E: e}, w); err != nil {
		t.Errorf("exact spectrum rejected: %v", err)
	}
	w[n-1], w[n-2] = w[n-2], w[n-1]
	if err := checkSpectrum(eigen.Tridiagonal{D: d, E: e}, w); err == nil {
		t.Errorf("unsorted spectrum accepted")
	}
}
