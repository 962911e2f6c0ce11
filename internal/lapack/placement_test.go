package lapack

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tridiag/internal/blas"
)

// deflationInput is the input of one merge's deflation scan: each child's
// ascending eigenvalues (indxq local to each child), the coupling rho and
// the rank-one vector z.
type deflationInput struct {
	n, n1 int
	d     []float64
	indxq []int
	rho   float64
	z     []float64
}

// synthDeflation builds a deflation input whose children have the given
// eigenvalues (sorted here) and whose z is drawn by zf.
func synthDeflation(d1, d2 []float64, rho float64, zf func(i int) float64) deflationInput {
	sort.Float64s(d1)
	sort.Float64s(d2)
	n1 := len(d1)
	n := n1 + len(d2)
	in := deflationInput{n: n, n1: n1, d: append(append([]float64(nil), d1...), d2...),
		indxq: make([]int, n), rho: rho, z: make([]float64, n)}
	for i := range in.indxq {
		in.indxq[i] = i
		if i >= n1 {
			in.indxq[i] = i - n1
		}
		in.z[i] = zf(i)
	}
	return in
}

// namedDeflation is one placement scenario.
type namedDeflation struct {
	name string
	in   deflationInput
}

// placementScenarios covers the placement's corner cases: random and heavily
// clustered merges (close-pair rotations and exact ties), K = 0, K = N, and
// the one-sided merges whose non-deflated columns are all type 1 or all
// type 3.
func placementScenarios(rng *rand.Rand) []namedDeflation {
	normals := func(m int) []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	clustered := func(m int) []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = float64(rng.Intn(4))
		}
		return v
	}
	spaced := func(m int, off float64) []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = float64(i) + off
		}
		return v
	}
	sparseZ := func(i int) float64 {
		if rng.Intn(10) < 3 {
			return 1e-20
		}
		return rng.NormFloat64()
	}
	denseZ := func(int) float64 { return 0.5 + rng.Float64() }
	return []namedDeflation{
		{"random", synthDeflation(normals(53), normals(71), 0.7, sparseZ)},
		{"clustered", synthDeflation(clustered(40), clustered(44), 1.3, func(int) float64 { return rng.NormFloat64() })},
		{"K=0", synthDeflation(normals(30), normals(34), 1e-30, denseZ)},
		{"K=N", synthDeflation(spaced(25, 0.25), spaced(27, 0.75), 1, denseZ)},
		{"type1-only", synthDeflation(normals(37), normals(29), 0.9, func(i int) float64 {
			if i >= 37 {
				return 0
			}
			return rng.NormFloat64()
		})},
		{"type3-only", synthDeflation(normals(37), normals(29), 0.9, func(i int) float64 {
			if i < 37 {
				return 0
			}
			return rng.NormFloat64()
		})},
	}
}

// checkScenarioShape fails the test when a scenario does not have the shape
// its name promises, so every case tests what it claims to.
func checkScenarioShape(t *testing.T, name string, df *Deflation) {
	t.Helper()
	var ok bool
	switch name {
	case "K=0":
		ok = df.K == 0
	case "K=N":
		ok = df.K == df.N
	case "type1-only":
		ok = df.K > 0 && df.C23() == 0
	case "type3-only":
		ok = df.K > 0 && df.C12() == 0
	default:
		ok = df.K > 0 && df.K < df.N
	}
	if !ok {
		t.Fatalf("%s: scenario has K=%d of N=%d, Ctot=%v", name, df.K, df.N, df.Ctot)
	}
}

// TestDeflationPlacement checks Slot and Move: the deflated vectors' slots
// together with [0, K) form a permutation of [0, N), a deflated vector at or
// beyond K keeps its own column, a moved one takes a column a non-deflated
// vector vacated, and Move names exactly the deflated vectors sitting below
// K.
func TestDeflationPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	for trial := 0; trial < 20; trial++ {
		for _, sc := range placementScenarios(rng) {
			name, in := sc.name, sc.in
			df, err := Dlaed2DeflateRot(in.n, in.n1, in.d, in.indxq, in.rho, in.z, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkScenarioShape(t, name, df)
			n, k := df.N, df.K
			if len(df.Slot) != n-k || len(df.Move) != k {
				t.Fatalf("%s: len(Slot)=%d len(Move)=%d, want %d and %d", name, len(df.Slot), len(df.Move), n-k, k)
			}
			seen := make([]bool, n)
			for c := 0; c < k; c++ {
				seen[c] = true
			}
			nonDeflated := make(map[int]bool, k)
			for _, c := range df.Perm[:k] {
				nonDeflated[c] = true
			}
			for j, s := range df.Slot {
				if s < 0 || s >= n || seen[s] {
					t.Fatalf("%s: Slot[%d]=%d collides or is out of range (K=%d)", name, j, s, k)
				}
				seen[s] = true
				src := df.Perm[k+j]
				switch {
				case src >= k && s != src:
					t.Fatalf("%s: deflated vector %d in column %d >= K moved to %d", name, j, src, s)
				case src < k && (!nonDeflated[s] || df.Move[src] != j):
					t.Fatalf("%s: deflated vector %d below K: slot %d vacated=%v, Move[%d]=%d", name, j, s, nonDeflated[s], src, df.Move[src])
				}
			}
			for c, j := range df.Move {
				if j >= 0 && df.Perm[k+j] != c {
					t.Fatalf("%s: Move[%d]=%d but that vector sits in column %d", name, c, j, df.Perm[k+j])
				}
				if j < 0 && !nonDeflated[c] {
					t.Fatalf("%s: column %d holds a deflated vector that Move misses", name, c)
				}
			}
		}
	}
}

// TestMergeOrderMatchesDlamrg checks the join against LAPACK's layout: with
// the K secular roots in d[0:K] and each deflated value in d[Slot[j]],
// MergeOrder must list the same entries in the same order as Dlamrg on the
// canonical layout (roots, then DeflD), ties between roots and deflated
// values included.
func TestMergeOrderMatchesDlamrg(t *testing.T) {
	rng := rand.New(rand.NewSource(612))
	for trial := 0; trial < 20; trial++ {
		for _, sc := range placementScenarios(rng) {
			name, in := sc.name, sc.in
			df, err := Dlaed2DeflateRot(in.n, in.n1, in.d, in.indxq, in.rho, in.z, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n, k := df.N, df.K
			// Stand-in roots: ascending, and half of them copies of deflated
			// values so that ties occur.
			roots := make([]float64, k)
			for i := range roots {
				if len(df.DeflD) > 0 && i%2 == 0 {
					roots[i] = df.DeflD[rng.Intn(len(df.DeflD))]
				} else {
					roots[i] = rng.NormFloat64()
				}
			}
			sort.Float64s(roots)
			d := make([]float64, n)
			canon := make([]float64, n)
			copy(d, roots)
			copy(canon, roots)
			for j, s := range df.Slot {
				d[s] = df.DeflD[j]
				canon[k+j] = df.DeflD[j]
			}
			got := make([]int, n)
			df.MergeOrder(d, got)
			want := make([]int, n)
			if k == 0 {
				for i := range want {
					want[i] = i // LAPACK's K = 0 layout is already sorted
				}
			} else {
				Dlamrg(k, n-k, canon, 1, -1, want)
			}
			for i, c := range want {
				w := c
				if c >= k {
					w = df.Slot[c-k]
				}
				if got[i] != w {
					t.Fatalf("%s trial %d: position %d: MergeOrder gives column %d, Dlamrg's layout gives %d (K=%d)", name, trial, i, got[i], w, k)
				}
			}
		}
	}
}

// mergeCase is one real merge for Dlaed1: a tridiagonal torn at cut, with
// both children solved, plus an optional edit of the children's vectors.
type mergeCase struct {
	n, cut int
	d, e   []float64
	edit   func(q []float64, n, cut int)
}

// setup tears the tridiagonal at cut, solves both children into a
// block-diagonal q, and returns Dlaed1's inputs.
func (mc mergeCase) setup(t *testing.T) (d, q []float64, indxq []int, rho float64) {
	t.Helper()
	n, cut := mc.n, mc.cut
	d = append([]float64(nil), mc.d...)
	e := append([]float64(nil), mc.e...)
	rho = e[cut-1]
	d[cut-1] -= math.Abs(rho)
	d[cut] -= math.Abs(rho)
	q = make([]float64, n*n)
	if err := Dsteqr(CompIdentity, cut, d[:cut], e[:cut-1], q, n); err != nil {
		t.Fatal(err)
	}
	if err := Dsteqr(CompIdentity, n-cut, d[cut:], e[cut:], q[cut+cut*n:], n); err != nil {
		t.Fatal(err)
	}
	if mc.edit != nil {
		mc.edit(q, n, cut)
	}
	indxq = make([]int, n)
	for i := range indxq {
		indxq[i] = i
		if i >= cut {
			indxq[i] = i - cut
		}
	}
	return d, q, indxq, rho
}

// copyEverythingDlaed1 is Dlaed1 with LAPACK DLAED2/DLAED3's placement, the
// reference for the in-place one: every deflated vector is copied out at
// full length and back to column K+j, and indxq comes from Dlamrg on that
// layout (the identity when K = 0, where the deflated group is ascending).
func copyEverythingDlaed1(t *testing.T, n, cut int, d, q []float64, indxq []int, rho float64) *Deflation {
	t.Helper()
	z := make([]float64, n)
	blas.Dcopy(cut, q[cut-1:], n, z, 1)
	blas.Dcopy(n-cut, q[cut+cut*n:], n, z[cut:], 1)
	w := denseWindow(q, n)
	df, err := Dlaed2Deflate(w, cut, d, indxq, rho, z)
	if err != nil {
		t.Fatal(err)
	}
	k := df.K
	defl := make([]float64, n*(n-k))
	for j := range df.DeflD {
		copy(defl[j*n:j*n+n], q[df.Perm[k+j]*n:])
	}
	if k > 0 {
		ws := NewMergeWorkspace(df)
		defer ws.Release()
		df.PermutePanel(w, ws, 0, k)
		secularPhase(t, df, ws, d)
		df.UpdatePanel(w, ws, 0, k, nil)
	}
	for j := range df.DeflD {
		copy(q[(k+j)*n:(k+j)*n+n], defl[j*n:j*n+n])
		d[k+j] = df.DeflD[j]
	}
	if k == 0 {
		for i := range indxq {
			indxq[i] = i
		}
	} else {
		Dlamrg(k, n-k, d, 1, -1, indxq)
	}
	return df
}

// TestDlaed1PlacementMatchesCopyEverything runs one Dlaed1 per scenario and
// the copy-everything reference on the same input: d, q and indxq, read in
// indxq order, must agree bit for bit — the merged (λ, v) sequence is the
// same, only the columns it sits in differ. The in-place run keeps the
// children's spans over NaN-filled off-block storage and is read through
// its output spans (0 outside); the reference rotates and copies dense
// zero-filled columns, so every row it holds outside a span must be +0.
func TestDlaed1PlacementMatchesCopyEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	legendre := func(n int) ([]float64, []float64) {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := 1; i < n; i++ {
			fi := float64(i)
			e[i-1] = fi / math.Sqrt((2*fi-1)*(2*fi+1))
		}
		return d, e
	}
	clustered := func(n int) ([]float64, []float64) {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = 2
		}
		for i := range e {
			e[i] = 1e-12
		}
		return d, e
	}
	diagonal := func(n int) ([]float64, []float64) {
		d, _ := randTridiag(rng, n)
		e := make([]float64, n-1)
		e[n/2-1] = 1e-30
		return d, e
	}
	random := func(n int) ([]float64, []float64) { return randTridiag(rng, n) }
	cases := []struct {
		name string
		n    int
		make func(int) ([]float64, []float64)
		edit func(q []float64, n, cut int)
	}{
		{"random", 96, random, nil},
		{"clustered", 80, clustered, nil},
		{"K=0", 64, diagonal, nil},
		{"K=N", 64, legendre, nil},
		// Zeroing the second child's first row (the first child's last row)
		// deflates every second-child (first-child) vector by its zero z
		// entry, leaving only type-1 (type-3) columns in the secular group.
		{"type1-only", 70, random, func(q []float64, n, cut int) {
			for j := cut; j < n; j++ {
				q[cut+j*n] = 0
			}
		}},
		{"type3-only", 70, random, func(q []float64, n, cut int) {
			for j := 0; j < cut; j++ {
				q[cut-1+j*n] = 0
			}
		}},
	}
	for _, c := range cases {
		name := c.name
		for trial := 0; trial < 5; trial++ {
			d0, e0 := c.make(c.n)
			mc := mergeCase{n: c.n, cut: c.n / 2, d: d0, e: e0, edit: c.edit}

			dr, qr, ixr, rho := mc.setup(t)
			df := copyEverythingDlaed1(t, mc.n, mc.cut, dr, qr, ixr, rho)
			checkScenarioShape(t, name, df)

			d, q, ix, rho := mc.setup(t)
			n := mc.n
			sp := childSpans(n, mc.cut)
			poisonOutside(q, n, sp)
			if err := Dlaed1(NewWindow(q, n, sp, 0, n), mc.cut, d, ix, rho, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := 0; i < n; i++ {
				a, b := ix[i], ixr[i]
				if math.Float64bits(d[a]) != math.Float64bits(dr[b]) {
					t.Fatalf("%s trial %d: eigenvalue %d in indxq order: %v (column %d) vs reference %v (column %d)", name, trial, i, d[a], a, dr[b], b)
				}
				for r := 0; r < n; r++ {
					if math.Float64bits(spanned(q, n, sp, r, a)) != math.Float64bits(qr[b*n+r]) {
						t.Fatalf("%s trial %d: vector %d in indxq order differs at row %d (column %d vs reference %d)", name, trial, i, r, a, b)
					}
				}
			}
		}
	}
}
