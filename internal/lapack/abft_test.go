package lapack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestCheckInterlacing: roots strictly inside their pole brackets pass; a
// root pushed past its bracket (the signature of a corrupted secular solve)
// fails with the LAED4-attributed corruption taxonomy.
func TestCheckInterlacing(t *testing.T) {
	const k = 8
	df := &Deflation{K: k, Rho: 0.5, Dlamda: make([]float64, k)}
	for i := range df.Dlamda {
		df.Dlamda[i] = float64(i)
	}
	d := make([]float64, k)
	for j := 0; j < k-1; j++ {
		d[j] = df.Dlamda[j] + 0.3 // inside [j, j+1]
	}
	d[k-1] = df.Dlamda[k-1] + 0.3 // inside [k-1, k-1+rho]
	if err := df.CheckInterlacing(d, 0, k); err != nil {
		t.Fatalf("false positive on interlaced roots: %v", err)
	}
	// A root that rounds to its pole must still pass (the slack covers it).
	d[3] = df.Dlamda[3]
	if err := df.CheckInterlacing(d, 0, k); err != nil {
		t.Fatalf("false positive on root at its pole: %v", err)
	}
	// An escaped root — a bit 57 exponent flip lands far outside any bracket.
	d[3] = math.Float64frombits(math.Float64bits(3.3) ^ (1 << 57))
	err := df.CheckInterlacing(d, 0, k)
	if err == nil {
		t.Fatal("escaped secular root passed interlacing")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T is not an *InvariantError", err)
	}
	if !ie.Corruption() || !ie.Transient() || ie.TaskClass() != "LAED4" {
		t.Errorf("taxonomy wrong: corruption=%v transient=%v class=%q", ie.Corruption(), ie.Transient(), ie.TaskClass())
	}
	// A NaN root compares false against both ends of its bracket.
	d[3] = math.NaN()
	if err := df.CheckInterlacing(d, 0, k); err == nil {
		t.Fatal("NaN secular root passed interlacing")
	}
}

// TestCheckTraceBudget: the merged spectrum's trace must match the
// entry-diagonal trace plus rho within the budget on clean merges — including
// a fully-deflated one where the dropped rank-one mass is the budget's
// absolute term — and a corrupted eigenvalue must break it.
func TestCheckTraceBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 200
	d := make([]float64, n)
	var traceIn, absIn, dmax float64
	for i := range d {
		d[i] = rng.NormFloat64()
		traceIn += d[i]
		absIn += math.Abs(d[i])
		if a := math.Abs(d[i]); a > dmax {
			dmax = a
		}
	}
	rho := 0.25

	// A clean "merge": eigenvalues shifted so the trace identity holds
	// exactly up to rounding (add rho to one entry).
	merged := append([]float64(nil), d...)
	merged[0] += rho
	want, tol := TraceBudget(traceIn, absIn, dmax, rho, n)
	defect, err := CheckTrace(merged, n, want, tol)
	if err != nil {
		t.Fatalf("false positive on clean trace: %v", err)
	}
	if defect > tol {
		t.Fatalf("defect %g reported above tolerance %g without error", defect, tol)
	}

	// Full deflation: the update's trace mass is legitimately dropped when
	// rho is below the deflation threshold; the budget's absolute term must
	// absorb it.
	tiny := 4 * Eps * dmax
	want, tol = TraceBudget(traceIn, absIn, dmax, tiny, n)
	if _, err := CheckTrace(d, n, want, tol); err != nil {
		t.Fatalf("false positive on fully deflated merge: %v", err)
	}

	// Corruption: one flipped exponent bit in the spectrum.
	want, tol = TraceBudget(traceIn, absIn, dmax, rho, n)
	merged[7] = math.Float64frombits(math.Float64bits(merged[7]) ^ (1 << 57))
	_, err = CheckTrace(merged, n, want, tol)
	if err == nil {
		t.Fatal("corrupted spectrum passed the trace check")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T is not an *InvariantError", err)
	}
	if ie.TaskClass() != "Dlamrg" || !ie.Corruption() {
		t.Errorf("taxonomy wrong: class=%q corruption=%v", ie.TaskClass(), ie.Corruption())
	}

	// A NaN eigenvalue makes the defect NaN, which must fail, not pass.
	merged[7] = math.NaN()
	if defect, err := CheckTrace(merged, n, want, tol); err == nil {
		t.Fatalf("NaN eigenvalue passed the trace check (defect %v)", defect)
	}
}

// TestCheckTraceCompensated: the compensated summation must keep a large
// one-signed spectrum's summation noise inside the budget — naive summation
// noise grows with n and would trip the check spuriously.
func TestCheckTraceCompensated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 5000
	d := make([]float64, n)
	var traceIn, absIn, dmax float64
	var c float64
	for i := range d {
		d[i] = 1 + 1e-3*rng.Float64() // one-signed: worst case for summation noise
		y := d[i] - c
		s := traceIn + y
		c = (s - traceIn) - y
		traceIn = s
		absIn += d[i]
		if d[i] > dmax {
			dmax = d[i]
		}
	}
	want, tol := TraceBudget(traceIn, absIn, dmax, 0, n)
	if _, err := CheckTrace(d, n, want, tol); err != nil {
		t.Fatalf("false positive on large one-signed spectrum: %v", err)
	}
}
