package lapack

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDlartgProperties(t *testing.T) {
	cases := [][2]float64{
		{0, 0}, {1, 0}, {0, 1}, {3, 4}, {-3, 4}, {3, -4}, {-3, -4},
		{1e-300, 1e-300}, {1e300, 1e300}, {1e308, 1}, {1, 1e308}, {1e-308, 1e-308},
	}
	for _, fg := range cases {
		f, g := fg[0], fg[1]
		c, s, r := Dlartg(f, g)
		// c²+s² = 1
		if math.Abs(c*c+s*s-1) > 1e-14 {
			t.Errorf("Dlartg(%g,%g): c²+s²=%v", f, g, c*c+s*s)
		}
		// rotation maps (f,g) to (r,0): use scaled comparison
		scale := math.Max(math.Abs(f), math.Abs(g))
		if scale == 0 {
			continue
		}
		sf, sg := f/scale, g/scale
		sr := r / scale
		if math.Abs(c*sf+s*sg-sr) > 1e-14 {
			t.Errorf("Dlartg(%g,%g): c*f+s*g=%v != r=%v", f, g, (c*sf+s*sg)*scale, r)
		}
		if math.Abs(-s*sf+c*sg) > 1e-14 {
			t.Errorf("Dlartg(%g,%g): -s*f+c*g=%v != 0", f, g, -s*sf+c*sg)
		}
	}
}

func TestDlartgQuick(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Remainder(a, 1e150)
		b = math.Remainder(b, 1e150)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c, s, r := Dlartg(a, b)
		if a == 0 && b == 0 {
			return c == 1 && s == 0
		}
		hyp := Dlapy2(a, b)
		return math.Abs(math.Abs(r)-hyp) <= 1e-13*hyp && math.Abs(c*c+s*s-1) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDlapy(t *testing.T) {
	if got := Dlapy2(3, 4); got != 5 {
		t.Errorf("Dlapy2(3,4)=%v", got)
	}
	if got := Dlapy2(1e308, 1e308); math.IsInf(got, 0) {
		t.Errorf("Dlapy2 overflow: %v", got)
	}
}

func TestDlanst(t *testing.T) {
	d := []float64{1, -5, 2}
	e := []float64{3, -4}
	if got := Dlanst('M', 3, d, e); got != 5 {
		t.Errorf("M-norm: %v", got)
	}
	// one-norm: max column sum = |{-5}| + |3| + |4| = 12
	if got := Dlanst('1', 3, d, e); got != 12 {
		t.Errorf("1-norm: %v", got)
	}
	want := math.Sqrt(1 + 25 + 4 + 2*(9+16))
	if got := Dlanst('F', 3, d, e); math.Abs(got-want) > 1e-14 {
		t.Errorf("F-norm: got %v want %v", got, want)
	}
	if got := Dlanst('M', 1, []float64{-7}, nil); got != 7 {
		t.Errorf("M-norm n=1: %v", got)
	}
}

func TestDlascl(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	Dlascl(2, 2, 2, 6, a, 2)
	for i, want := range []float64{3, 6, 9, 12} {
		if a[i] != want {
			t.Errorf("Dlascl[%d]=%v want %v", i, a[i], want)
		}
	}
	// extreme ratio must be applied safely in steps
	b := []float64{1e-200}
	Dlascl(1, 1, 1e-200, 1e200, b, 1)
	if b[0] != 1e200 {
		t.Errorf("Dlascl extreme: %v", b[0])
	}
	c := []float64{1e200}
	Dlascl(1, 1, 1e200, 1e-200, c, 1)
	if math.Abs(c[0]-1e-200) > 1e-213 {
		t.Errorf("Dlascl extreme down: %v", c[0])
	}
}

func TestDlamrg(t *testing.T) {
	// two ascending blocks
	a := []float64{1, 4, 9, 2, 3, 10}
	idx := make([]int, 6)
	Dlamrg(3, 3, a, 1, 1, idx)
	prev := math.Inf(-1)
	seen := map[int]bool{}
	for _, ix := range idx {
		if a[ix] < prev {
			t.Fatalf("Dlamrg not ascending: %v -> %v", prev, a[ix])
		}
		prev = a[ix]
		seen[ix] = true
	}
	if len(seen) != 6 {
		t.Fatalf("Dlamrg not a permutation: %v", idx)
	}
	// second block descending
	b := []float64{1, 4, 9, 10, 3, 2}
	Dlamrg(3, 3, b, 1, -1, idx)
	prev = math.Inf(-1)
	for _, ix := range idx {
		if b[ix] < prev {
			t.Fatalf("Dlamrg desc block not ascending: %v", idx)
		}
		prev = b[ix]
	}
}

func TestDlamrgQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		n1, n2 := rng.Intn(10), rng.Intn(10)
		if n1+n2 == 0 {
			continue
		}
		a := make([]float64, n1+n2)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		sort.Float64s(a[:n1])
		sort.Float64s(a[n1:])
		idx := make([]int, n1+n2)
		Dlamrg(n1, n2, a, 1, 1, idx)
		prev := math.Inf(-1)
		for _, ix := range idx {
			if a[ix] < prev {
				t.Fatalf("iter %d: not sorted", iter)
			}
			prev = a[ix]
		}
	}
}

func TestDlaev2(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		rt1, rt2, cs, sn := Dlaev2(a, b, c)
		// eigenvalues satisfy trace and det
		if math.Abs((rt1+rt2)-(a+c)) > 1e-12*(math.Abs(rt1)+math.Abs(rt2)+1) {
			t.Fatalf("trace mismatch: %v %v vs %v", rt1, rt2, a+c)
		}
		det := a*c - b*b
		if math.Abs(rt1*rt2-det) > 1e-10*(math.Abs(det)+1) {
			t.Fatalf("det mismatch")
		}
		// (cs, sn) is a unit eigenvector for rt1
		r1 := a*cs + b*sn - rt1*cs
		r2 := b*cs + c*sn - rt1*sn
		if math.Abs(r1) > 1e-12*(math.Abs(rt1)+1) || math.Abs(r2) > 1e-12*(math.Abs(rt1)+1) {
			t.Fatalf("eigenvector residual: %v %v", r1, r2)
		}
		if math.Abs(cs*cs+sn*sn-1) > 1e-13 {
			t.Fatalf("eigenvector not unit")
		}
		// rt1 has the larger magnitude
		if math.Abs(rt1) < math.Abs(rt2)-1e-13 {
			t.Fatalf("rt1 not largest: %v %v", rt1, rt2)
		}
	}
}

func TestSign(t *testing.T) {
	if Sign(3, -2) != -3 || Sign(-3, 2) != 3 || Sign(3, 0) != 3 {
		t.Error("Sign semantics")
	}
}
