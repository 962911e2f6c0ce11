package lapack

import (
	"math"
	"math/rand"
	"testing"
)

// tridiagResidual returns max column norm of T*V - V*diag(lam), a measure of
// ||T - V Λ Vᵀ|| when V is orthogonal.
func tridiagResidual(n int, d, e, lam, z []float64, ldz int) float64 {
	worst := 0.0
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		v := z[j*ldz : j*ldz+n]
		for i := 0; i < n; i++ {
			s := d[i] * v[i]
			if i > 0 {
				s += e[i-1] * v[i-1]
			}
			if i < n-1 {
				s += e[i] * v[i+1]
			}
			y[i] = s - lam[j]*v[i]
		}
		var nrm float64
		for _, t := range y {
			nrm += t * t
		}
		worst = math.Max(worst, math.Sqrt(nrm))
	}
	return worst
}

// orthogonality returns max |(VᵀV - I)(i,j)|.
func orthogonality(n int, z []float64, ldz int) float64 {
	worst := 0.0
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var s float64
			zi, zj := z[i*ldz:i*ldz+n], z[j*ldz:j*ldz+n]
			for k := 0; k < n; k++ {
				s += zi[k] * zj[k]
			}
			if i == j {
				s -= 1
			}
			worst = math.Max(worst, math.Abs(s))
		}
	}
	return worst
}

func randTridiag(rng *rand.Rand, n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return d, e
}

func checkEigenDecomp(t *testing.T, name string, n int, d, e, lam, z []float64, ldz int, tolScale float64) {
	t.Helper()
	nrm := Dlanst('M', n, d, e)
	if nrm == 0 {
		nrm = 1
	}
	res := tridiagResidual(n, d, e, lam, z, ldz) / (nrm * float64(n))
	orth := orthogonality(n, z, ldz) / float64(n)
	bound := tolScale * Eps
	if res > bound {
		t.Errorf("%s: relative residual %.3e exceeds %.3e", name, res, bound)
	}
	if orth > bound {
		t.Errorf("%s: orthogonality %.3e exceeds %.3e", name, orth, bound)
	}
	for i := 1; i < n; i++ {
		if lam[i] < lam[i-1] {
			t.Errorf("%s: eigenvalues not ascending at %d: %v > %v", name, i, lam[i-1], lam[i])
		}
	}
}

// childSpans returns the spans of a merge's two solved children: columns
// [0, cut) valid on rows [0, cut), the others on rows [cut, n).
func childSpans(n, cut int) []Span {
	sp := make([]Span, n)
	for j := range sp {
		if j < cut {
			sp[j] = Span{0, cut}
		} else {
			sp[j] = Span{cut, n}
		}
	}
	return sp
}

// denseWindow returns the n×n matrix q (ldq = n) as one window whose
// columns are valid on every row.
func denseWindow(q []float64, n int) Window {
	sp := make([]Span, n)
	for j := range sp {
		sp[j] = Span{0, n}
	}
	return NewWindow(q, n, sp, 0, n)
}

// poisonOutside writes NaN over q's rows [0, n) outside each column's span,
// so a kernel that reads a structural zero from storage shows it.
func poisonOutside(q []float64, ldq int, sp []Span) {
	for j, s := range sp {
		col := q[j*ldq : j*ldq+len(sp)]
		for r := range col {
			if r < s.Lo || r >= s.Hi {
				col[r] = math.NaN()
			}
		}
	}
}

// spanned returns q's entry at row r of column c as the spans define it: 0
// outside the column's span.
func spanned(q []float64, ldq int, sp []Span, r, c int) float64 {
	if r < sp[c].Lo || r >= sp[c].Hi {
		return 0
	}
	return q[r+c*ldq]
}
