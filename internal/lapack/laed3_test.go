package lapack

import (
	"math"
	"math/rand"
	"testing"
)

// buildMerge runs one D&C merge up to (but not including) UpdateVect: solve
// both halves, deflate, permute into the compressed workspace, solve the
// secular equation, and form the updated eigenvector coefficients in ws.S.
func buildMerge(t *testing.T, n, cut int, d0, e0 []float64) (*Deflation, *MergeWorkspace, []float64, []Span) {
	t.Helper()
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
	sp := childSpans(n, cut)
	w := NewWindow(q, n, sp, 0, n)
	df, err := Dlaed2Deflate(w, cut, d, indxq, rho, z)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewMergeWorkspace(df)
	df.PermutePanel(w, ws, 0, n)
	if df.K == 0 {
		return df, ws, q, sp
	}
	secularPhase(t, df, ws, d)
	return df, ws, q, sp
}

// secularPhase runs a merge's secular tasks in program order over all K
// roots — SecularPanel, LocalWPanel, FinishW, VectorsPanel — leaving the
// secular eigenvectors in ws.S, grouped rows, as Dlaed1 does.
func secularPhase(t *testing.T, df *Deflation, ws *MergeWorkspace, d []float64) {
	t.Helper()
	k := df.K
	porg, ptau, wloc := make([]float64, k), make([]float64, k), make([]float64, k)
	what, poles := make([]float64, k), make([]float64, k)
	if _, _, err := df.SecularPanel(d, porg, ptau, 0, k); err != nil {
		t.Fatal(err)
	}
	for i := range wloc {
		wloc[i] = 1
	}
	df.LocalWPanel(porg, ptau, wloc, 0, k)
	df.FinishW(what, poles, wloc)
	df.VectorsPanel(ws.S, what, poles, porg, ptau, 0, k)
}

// TestUpdatePanelPackedMatchesUnpacked checks the per-merge pack-reuse path
// on randomized deflation outcomes: UpdateVect through operands pre-packed by
// PackV must produce the same eigenvectors as the plain GEMM path, panel by
// panel, for merges with low and high deflation.
func TestUpdatePanelPackedMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	type scenario struct {
		name   string
		n, cut int
		make   func(n int) (d0, e0 []float64)
	}
	random := func(n int) ([]float64, []float64) { return randTridiag(rng, n) }
	clustered := func(n int) ([]float64, []float64) {
		// Constant diagonal with tiny couplings: heavy deflation, small K.
		d0 := make([]float64, n)
		e0 := make([]float64, n-1)
		for i := range d0 {
			d0[i] = 2
		}
		for i := range e0 {
			e0[i] = 1e-12
		}
		return d0, e0
	}
	scenarios := []scenario{
		{"low-deflation-even", 192, 96, random},
		{"low-deflation-skewed", 200, 48, random},
		{"odd-tails", 157, 61, random},
		{"small", 24, 12, random},
		{"high-deflation", 128, 64, clustered},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			d0, e0 := sc.make(sc.n)
			df, ws, q, sp := buildMerge(t, sc.n, sc.cut, d0, e0)
			defer ws.Release()
			if df.K == 0 {
				return // nothing for UpdateVect to do
			}
			n := sc.n
			nb := 32
			qUnpacked := append([]float64(nil), q...)
			qPacked := append([]float64(nil), q...)
			wUnpacked := NewWindow(qUnpacked, n, append([]Span(nil), sp...), 0, n)
			wPacked := NewWindow(qPacked, n, append([]Span(nil), sp...), 0, n)

			var unpackedOnly int
			for j0 := 0; j0 < df.K; j0 += nb {
				j1 := min(j0+nb, df.K)
				hits, misses := df.UpdatePanel(wUnpacked, ws, j0, j1, nil)
				if hits != 0 {
					t.Fatalf("panel [%d,%d): packed hits before PackV", j0, j1)
				}
				unpackedOnly += misses
			}

			bytes := df.PackV(ws, nb)
			var hits, misses int
			for j0 := 0; j0 < df.K; j0 += nb {
				j1 := min(j0+nb, df.K)
				h, m := df.UpdatePanel(wPacked, ws, j0, j1, nil)
				hits += h
				misses += m
			}
			if bytes > 0 && hits == 0 {
				t.Fatalf("PackV packed %d bytes but no panel hit the packed path", bytes)
			}
			if bytes == 0 && hits != 0 {
				t.Fatalf("nothing packed but %d panels claimed the packed path", hits)
			}
			if hits+misses != unpackedOnly {
				t.Fatalf("GEMM count changed with packing: %d+%d vs %d", hits, misses, unpackedOnly)
			}

			tol := 1e-12 * float64(n)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					a, b := qUnpacked[i+j*n], qPacked[i+j*n]
					if math.Abs(a-b) > tol {
						t.Fatalf("q(%d,%d): unpacked %v packed %v", i, j, a, b)
					}
				}
			}
		})
	}
}

// TestMergeWorkspaceReleaseClearsPacks: Release must drop the packed operands
// so a recycled workspace never aliases a previous merge's packs.
func TestMergeWorkspaceReleaseClearsPacks(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	d0, e0 := randTridiag(rng, 96)
	df, ws, _, _ := buildMerge(t, 96, 48, d0, e0)
	df.PackV(ws, 32)
	ws.Release()
	if ws.PackTop != nil || ws.PackBot != nil || ws.Q2Top != nil || ws.S != nil {
		t.Fatal("Release left workspace fields live")
	}
}
