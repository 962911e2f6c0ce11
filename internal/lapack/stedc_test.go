package lapack

import (
	"math"
	"math/rand"
	"testing"
)

// solveHalvesAndMerge reproduces one D&C merge by hand: adjust the boundary,
// solve both halves with Dsteqr, then Dlaed1 and the closing sort. q holds
// NaN outside the children's blocks, which no kernel may read.
func solveHalvesAndMerge(t *testing.T, n, cut int, d0, e0 []float64) (d, q []float64) {
	t.Helper()
	d = append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	rho := e[cut-1]
	ae := math.Abs(rho)
	d[cut-1] -= ae
	d[cut] -= ae
	q = make([]float64, n*n)
	if err := Dsteqr(CompIdentity, cut, d[:cut], e[:cut-1], q, n); err != nil {
		t.Fatal(err)
	}
	if err := Dsteqr(CompIdentity, n-cut, d[cut:], e[cut:], q[cut+cut*n:], n); err != nil {
		t.Fatal(err)
	}
	indxq := make([]int, n)
	for i := 0; i < cut; i++ {
		indxq[i] = i
	}
	for i := cut; i < n; i++ {
		indxq[i] = i - cut
	}
	sp := childSpans(n, cut)
	poisonOutside(q, n, sp)
	if err := Dlaed1(NewWindow(q, n, sp, 0, n), cut, d, indxq, rho, nil); err != nil {
		t.Fatal(err)
	}
	SortOrder(n, d, indxq, 1)
	fs := NewFinalSort(n, indxq, q, n, sp, 1, false)
	fs.Segment(0)
	fs.Release()
	return d, q
}

func TestDlaed1SingleMergeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct{ n, cut int }{
		{2, 1}, {3, 1}, {3, 2}, {10, 5}, {10, 3}, {33, 16}, {64, 32}, {50, 20},
	} {
		d0, e0 := randTridiag(rng, tc.n)
		lam, q := solveHalvesAndMerge(t, tc.n, tc.cut, d0, e0)
		checkEigenDecomp(t, "laed1", tc.n, d0, e0, lam, q, tc.n, 60)

		// eigenvalues must match a direct Dsteqr solve
		dd := append([]float64(nil), d0...)
		ee := append([]float64(nil), e0...)
		if err := Dsteqr(CompNone, tc.n, dd, ee, nil, 0); err != nil {
			t.Fatal(err)
		}
		nrm := Dlanst('M', tc.n, d0, e0) + 1
		for i := 0; i < tc.n; i++ {
			if math.Abs(lam[i]-dd[i]) > 1e-12*nrm*float64(tc.n) {
				t.Errorf("n=%d cut=%d eig %d: merge %v direct %v", tc.n, tc.cut, i, lam[i], dd[i])
			}
		}
	}
}

func TestDlaed1HighDeflation(t *testing.T) {
	// Constant-diagonal matrix with tiny coupling: almost everything deflates.
	n := 24
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for i := range d0 {
		d0[i] = 2
	}
	for i := range e0 {
		e0[i] = 1e-12
	}
	lam, q := solveHalvesAndMerge(t, n, n/2, d0, e0)
	checkEigenDecomp(t, "high-deflation", n, d0, e0, lam, q, n, 60)
}

func TestDlaed1NegativeRho(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n := 16
	d0, e0 := randTridiag(rng, n)
	e0[n/2-1] = -math.Abs(e0[n/2-1]) - 0.5 // force negative coupling
	lam, q := solveHalvesAndMerge(t, n, n/2, d0, e0)
	checkEigenDecomp(t, "negative-rho", n, d0, e0, lam, q, n, 60)
}

func TestDlaed2DeflateInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(40)
		cut := 1 + rng.Intn(n-1)
		d0, e0 := randTridiag(rng, n)
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		rho := e[cut-1]
		ae := math.Abs(rho)
		d[cut-1] -= ae
		d[cut] -= ae
		q := make([]float64, n*n)
		if err := Dsteqr(CompIdentity, cut, d[:cut], e[:max(cut-1, 0)], q, n); err != nil {
			t.Fatal(err)
		}
		if err := Dsteqr(CompIdentity, n-cut, d[cut:], e[cut:], q[cut+cut*n:], n); err != nil {
			t.Fatal(err)
		}
		indxq := make([]int, n)
		for i := 0; i < cut; i++ {
			indxq[i] = i
		}
		for i := cut; i < n; i++ {
			indxq[i] = i - cut
		}
		z := make([]float64, n)
		for j := 0; j < cut; j++ {
			z[j] = q[cut-1+j*n]
		}
		for j := cut; j < n; j++ {
			z[j] = q[cut+j*n]
		}
		df, err := Dlaed2Deflate(NewWindow(q, n, childSpans(n, cut), 0, n), cut, d, indxq, rho, z)
		if err != nil {
			t.Fatal(err)
		}
		// Perm must be a bijection on [0,n)
		seen := make([]bool, n)
		for _, p := range df.Perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("trial %d: Perm not a bijection: %v", trial, df.Perm)
			}
			seen[p] = true
		}
		// counts must sum to n and K = c1+c2+c3
		if df.Ctot[0]+df.Ctot[1]+df.Ctot[2]+df.Ctot[3] != n {
			t.Fatalf("trial %d: type counts %v don't sum to %d", trial, df.Ctot, n)
		}
		if df.Ctot[0]+df.Ctot[1]+df.Ctot[2] != df.K {
			t.Fatalf("trial %d: K=%d vs counts %v", trial, df.K, df.Ctot)
		}
		if len(df.Dlamda) != df.K || len(df.W) != df.K || len(df.DeflD) != n-df.K {
			t.Fatalf("trial %d: slice lengths inconsistent", trial)
		}
		// Dlamda ascending
		for i := 1; i < df.K; i++ {
			if df.Dlamda[i] < df.Dlamda[i-1] {
				t.Fatalf("trial %d: Dlamda not ascending", trial)
			}
		}
		// DeflD descending (LAPACK tail order), except K==0 (ascending)
		for i := 1; i < len(df.DeflD); i++ {
			if df.K == 0 {
				if df.DeflD[i] < df.DeflD[i-1] {
					t.Fatalf("trial %d: K=0 DeflD not ascending", trial)
				}
			} else if df.DeflD[i] > df.DeflD[i-1] {
				t.Fatalf("trial %d: DeflD not descending: %v", trial, df.DeflD)
			}
		}
		// GroupToSecular must be a bijection on [0,K)
		seenK := make([]bool, df.K)
		for _, s := range df.GroupToSecular {
			if s < 0 || s >= df.K || seenK[s] {
				t.Fatalf("trial %d: GroupToSecular invalid", trial)
			}
			seenK[s] = true
		}
	}
}

func TestDlaed2DeflateAllDeflated(t *testing.T) {
	// Identical subproblems with zero coupling -> rho*|z| under tolerance.
	n, cut := 8, 4
	d := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	q := make([]float64, n*n)
	for j := 0; j < n; j++ {
		q[j+j*n] = 1
	}
	indxq := []int{0, 1, 2, 3, 0, 1, 2, 3}
	z := make([]float64, n)
	z[cut-1] = 1
	z[cut] = 1
	df, err := Dlaed2Deflate(denseWindow(q, n), cut, d, indxq, 1e-30, z)
	if err != nil {
		t.Fatal(err)
	}
	if df.K != 0 {
		t.Fatalf("expected full deflation, K=%d", df.K)
	}
	want := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	for i, v := range df.DeflD {
		if v != want[i] {
			t.Fatalf("DeflD[%d]=%v want %v", i, v, want[i])
		}
	}
}

func TestDstedcMatchesDsteqr(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{1, 2, 5, 26, 60, 120} {
		for _, smlsiz := range []int{4, 25} {
			d0, e0 := randTridiag(rng, n)
			d := append([]float64(nil), d0...)
			e := append([]float64(nil), e0...)
			q := make([]float64, n*n)
			if err := Dstedc(n, d, e, q, n, &DCConfig{SmallSize: smlsiz}); err != nil {
				t.Fatalf("n=%d smlsiz=%d: %v", n, smlsiz, err)
			}
			checkEigenDecomp(t, "dstedc", n, d0, e0, d, q, n, 100)

			dd := append([]float64(nil), d0...)
			ee := append([]float64(nil), e0...)
			if err := Dsteqr(CompNone, n, dd, ee, nil, 0); err != nil {
				t.Fatal(err)
			}
			nrm := Dlanst('M', n, d0, e0) + 1
			for i := 0; i < n; i++ {
				if math.Abs(d[i]-dd[i]) > 1e-11*nrm*float64(n) {
					t.Errorf("n=%d smlsiz=%d eig %d: dc=%v qr=%v", n, smlsiz, i, d[i], dd[i])
				}
			}
		}
	}
}

func TestDstedcOneTwoOne(t *testing.T) {
	n := 100
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for i := range d0 {
		d0[i] = 2
	}
	for i := range e0 {
		e0[i] = 1
	}
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	if err := Dstedc(n, d, e, q, n, &DCConfig{SmallSize: 8}); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(d[k-1]-want) > 1e-11 {
			t.Errorf("eigenvalue %d: got %v want %v", k, d[k-1], want)
		}
	}
	checkEigenDecomp(t, "dstedc-121", n, d0, e0, d, q, n, 100)
}

func TestDstedcZeroMatrix(t *testing.T) {
	n := 40
	d := make([]float64, n)
	e := make([]float64, n-1)
	q := make([]float64, n*n)
	if err := Dstedc(n, d, e, q, n, &DCConfig{SmallSize: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if d[i] != 0 || q[i+i*n] != 1 {
			t.Fatalf("zero matrix: d[%d]=%v q=%v", i, d[i], q[i+i*n])
		}
	}
}

func TestDstedcScaledMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, scale := range []float64{1e-150, 1e150} {
		n := 48
		d0, e0 := randTridiag(rng, n)
		for i := range d0 {
			d0[i] *= scale
		}
		for i := range e0 {
			e0[i] *= scale
		}
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		q := make([]float64, n*n)
		if err := Dstedc(n, d, e, q, n, &DCConfig{SmallSize: 8}); err != nil {
			t.Fatalf("scale=%g: %v", scale, err)
		}
		checkEigenDecomp(t, "dstedc-scaled", n, d0, e0, d, q, n, 100)
	}
}

func TestDstedcGluedWilkinson(t *testing.T) {
	// Glued Wilkinson matrices produce tight clusters: a deflation stress.
	n := 84 // four W21 blocks glued with small couplings
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for b := 0; b < 4; b++ {
		for i := 0; i < 21; i++ {
			d0[b*21+i] = math.Abs(float64(i - 10))
		}
		for i := 0; i < 20; i++ {
			e0[b*21+i] = 1
		}
		if b < 3 {
			e0[b*21+20] = 1e-8
		}
	}
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	if err := Dstedc(n, d, e, q, n, &DCConfig{SmallSize: 10}); err != nil {
		t.Fatal(err)
	}
	checkEigenDecomp(t, "glued-wilkinson", n, d0, e0, d, q, n, 200)
}

func TestPartitionSizes(t *testing.T) {
	for _, tc := range []struct{ n, sm int }{{100, 25}, {1000, 300}, {7, 3}, {25, 25}, {26, 25}} {
		sizes := PartitionSizes(tc.n, tc.sm)
		sum := 0
		for _, s := range sizes {
			sum += s
			if s > tc.sm {
				t.Errorf("n=%d sm=%d: leaf %d too large", tc.n, tc.sm, s)
			}
			if s < 1 {
				t.Errorf("n=%d sm=%d: empty leaf", tc.n, tc.sm)
			}
		}
		if sum != tc.n {
			t.Errorf("n=%d sm=%d: sizes sum to %d", tc.n, tc.sm, sum)
		}
	}
	// n=1000, smlsiz=300 gives 4 leaves of 250 each (paper's Figure 2).
	sizes := PartitionSizes(1000, 300)
	if len(sizes) != 4 || sizes[0] != 250 {
		t.Errorf("paper example: %v", sizes)
	}
}

func TestDgemmHookIsUsed(t *testing.T) {
	called := false
	hook := func(ta, tb bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
		called = true
		// delegate to the serial kernel
		naive := func() {
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					var s float64
					for l := 0; l < k; l++ {
						s += a[i+l*lda] * b[l+j*ldb]
					}
					c[i+j*ldc] = alpha*s + beta*c[i+j*ldc]
				}
			}
		}
		naive()
	}
	rng := rand.New(rand.NewSource(83))
	n := 40
	d0, e0 := randTridiag(rng, n)
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	if err := Dstedc(n, d, e, q, n, &DCConfig{SmallSize: 8, Gemm: hook}); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("gemm hook never invoked")
	}
	checkEigenDecomp(t, "hooked", n, d0, e0, d, q, n, 100)
}
