package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tridiag/internal/blas"
	"tridiag/internal/testmat"
)

// TestModesAgreeOnSuite: every execution mode must produce the same
// eigenvalues (and valid eigenvectors) on representative Table III types.
func TestModesAgreeOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for _, typ := range []int{2, 4, 10, 11, 12} {
		m, err := testmat.Type(typ, 140, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := m.N()
		var ref []float64
		for _, mode := range []Mode{ModeSequential, ModeTaskFlow, ModeLevelSync, ModeScaLAPACK, ModeForkJoin} {
			d := append([]float64(nil), m.D...)
			e := append([]float64(nil), m.E...)
			q := make([]float64, n*n)
			if _, err := SolveDC(n, d, e, q, n, &Options{
				Mode: mode, Workers: 3, MinPartition: 24, PanelSize: 20,
			}); err != nil {
				t.Fatalf("type %d mode %v: %v", typ, mode, err)
			}
			res, orth := residualAndOrth(n, m.D, m.E, d, q, n)
			nrm := 1.0
			for _, v := range m.D {
				nrm = math.Max(nrm, math.Abs(v))
			}
			for _, v := range m.E {
				nrm = math.Max(nrm, math.Abs(v))
			}
			if res/(nrm*float64(n)) > 1e-13 || orth/float64(n) > 1e-13 {
				t.Errorf("type %d mode %v: res %.2e orth %.2e", typ, mode, res, orth)
			}
			if ref == nil {
				ref = d
				continue
			}
			for i := 0; i < n; i++ {
				if math.Abs(d[i]-ref[i]) > 1e-11*nrm*float64(n) {
					t.Errorf("type %d mode %v: eig %d differs: %v vs %v", typ, mode, i, d[i], ref[i])
				}
			}
		}
	}
}

// TestPanelBoundaryAroundK: panel sizes that straddle the deflation count k
// in every possible alignment must stay correct (the matrix-independent DAG
// dispatches empty panels at runtime).
func TestPanelBoundaryAroundK(t *testing.T) {
	// a matrix with a reproducible mid-range k at the root merge
	n := 96
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for i := range d0 {
		d0[i] = 2 + 0.001*float64(i)
	}
	for i := range e0 {
		e0[i] = 1
	}
	for nb := 1; nb <= 12; nb++ {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		q := make([]float64, n*n)
		if _, err := SolveDC(n, d, e, q, n, &Options{
			Workers: 2, MinPartition: 16, PanelSize: nb,
		}); err != nil {
			t.Fatalf("nb=%d: %v", nb, err)
		}
		res, orth := residualAndOrth(n, d0, e0, d, q, n)
		if res > 1e-11 || orth > 1e-12 {
			t.Errorf("nb=%d: res %.2e orth %.2e", nb, res, orth)
		}
	}
}

// TestPanelChainEdges pins the schedule of every merge panel p of a default
// solve: PermuteV p → LAED4 p → CopyBack p → ComputeVect p, through the
// panel's perm handle. The LAED4 and ComputeVect edges guard no storage; they
// are the order the replayed makespan favoured (dc.go), and this test is what
// keeps them. CopyBack p → UpdateVect p does guard storage (UpdateVect p
// overwrites the columns CopyBack p empties), so UpdateVect keeps its own
// edge instead of resting on ComputeVect's.
func TestPanelChainEdges(t *testing.T) {
	n := 600
	d, e := randTridiag(rand.New(rand.NewSource(26)), n)
	res, err := SolveDC(n, d, e, make([]float64, n*n), n, &Options{Workers: 2, CaptureGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	label := make(map[int]string, len(g.Tasks))
	for _, ti := range g.Tasks {
		label[ti.ID] = ti.Label
	}
	edge := make(map[[2]string]bool, len(g.Edges))
	for _, ed := range g.Edges {
		edge[[2]string{label[ed[0]], label[ed[1]]}] = true
	}
	panels, merges := 0, 0
	for _, ti := range g.Tasks {
		switch ti.Class {
		case "ComputeDeflation":
			merges++
		case "PermuteV":
			panels++
			suffix := strings.TrimPrefix(ti.Label, "PermuteV") // "[start:end]pP"
			for _, pair := range [][2]string{
				{"PermuteV", "LAED4"}, {"LAED4", "CopyBack"}, {"CopyBack", "ComputeVect"}, {"CopyBack", "UpdateVect"},
			} {
				if from, to := pair[0]+suffix, pair[1]+suffix; !edge[[2]string{from, to}] {
					t.Errorf("no edge %s → %s", from, to)
				}
			}
		}
	}
	if merges == 0 || panels <= merges {
		t.Fatalf("%d panels over %d merges: the solve must split some merge into panels", panels, merges)
	}
}

// TestLeafSizes: the task flow's leaves are at most MinPartition rows; a
// matrix of at most MinPartition rows is split once when its halves exceed
// a QR leaf, and is one leaf otherwise; at MinPartition ≤ 25 the leaves are
// the QR leaves, as lapack.PartitionSizes cuts them.
func TestLeafSizes(t *testing.T) {
	for _, tc := range []struct {
		n, minPart int
		want       []int
	}{
		{2000, 128, []int{125, 125, 125, 125, 125, 125, 125, 125, 125, 125, 125, 125, 125, 125, 125, 125}},
		{300, 128, []int{75, 75, 75, 75}},
		{129, 128, []int{64, 65}},
		{128, 128, []int{64, 64}},
		{101, 128, []int{50, 51}},
		{52, 128, []int{26, 26}},
		{51, 128, []int{51}},
		{30, 64, []int{30}},
		{1, 128, []int{1}},
		{40, 25, []int{20, 20}},
		{20, 25, []int{20}},
		{48, 16, []int{12, 12, 12, 12}},
	} {
		if got := LeafSizes(tc.n, tc.minPart); !slices.Equal(got, tc.want) {
			t.Errorf("LeafSizes(%d, %d) = %v, want %v", tc.n, tc.minPart, got, tc.want)
		}
	}
}

// TestLeafOnlyProblem: a problem whose halves fit a QR leaf is one STEDC
// task through the runtime, in both lanes, and the merges inside the leaf
// reach the stats.
func TestLeafOnlyProblem(t *testing.T) {
	n := 30
	rng := rand.New(rand.NewSource(807))
	d0, e0 := randTridiag(rng, n)
	for _, vo := range []bool{false, true} {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		var q []float64
		if !vo {
			q = make([]float64, n*n)
		}
		res, err := SolveDC(n, d, e, q, n, &Options{MinPartition: 64, CaptureGraph: true, ValuesOnly: vo})
		if err != nil {
			t.Fatal(err)
		}
		classes := map[string]int{}
		for _, ti := range res.Graph.Tasks {
			classes[ti.Class]++
		}
		if classes["STEDC"] != 1 || classes["ComputeDeflation"] != 0 {
			t.Errorf("values-only=%v: task classes %v, want one STEDC task and no merge", vo, classes)
		}
		// 30 rows split into two QR leaves of 15: one merge inside the leaf.
		if len(res.Stats.Merges) != 1 || res.Stats.Merges[0].N != n || !res.Stats.Merges[0].InLeaf {
			t.Errorf("values-only=%v: merges %+v, want the one in-leaf merge of %d rows", vo, res.Stats.Merges, n)
		} else if m := res.Stats.Merges[0]; res.Stats.DeflationRatio() != 0 || res.Stats.TreeDeflationRatio() != float64(m.N-m.K)/float64(m.N) {
			t.Errorf("values-only=%v: deflation ratios %v (task flow) and %v (tree), want 0 and the in-leaf merge's", vo, res.Stats.DeflationRatio(), res.Stats.TreeDeflationRatio())
		}
		if ab := res.Stats.ABFT(); ab.Invariants < 2 {
			t.Errorf("values-only=%v: %d invariant checks, want the in-leaf merge's two", vo, ab.Invariants)
		}
		if vo {
			continue
		}
		r, orth := residualAndOrth(n, d0, e0, d, q, n)
		if r > 1e-12 || orth > 1e-13 {
			t.Errorf("leaf-only: res %.2e orth %.2e", r, orth)
		}
	}
}

// TestDeflationRatios: DeflationRatio counts the task flow's merges and
// TreeDeflationRatio every merge, the ones inside the leaf tasks too; with
// QR leaves as task leaves (MinPartition 25) no merge runs inside a leaf
// and the two agree.
func TestDeflationRatios(t *testing.T) {
	n := 400
	d0, e0 := gluedW21(rand.New(rand.NewSource(811)), n)
	ratio := func(ms []MergeStat, inLeaf bool) float64 {
		var tot, defl int
		for _, m := range ms {
			if !m.InLeaf || inLeaf {
				tot += m.N
				defl += m.N - m.K
			}
		}
		return float64(defl) / float64(tot)
	}
	for _, minPart := range []int{100, 25} {
		for _, vo := range []bool{false, true} {
			d := append([]float64(nil), d0...)
			e := append([]float64(nil), e0...)
			var q []float64
			if !vo {
				q = make([]float64, n*n)
			}
			res, err := SolveDC(n, d, e, q, n, &Options{Workers: 2, MinPartition: minPart, ValuesOnly: vo})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			var leafMerges, flowMerges int
			for _, m := range st.Merges {
				if m.InLeaf {
					leafMerges++
				} else {
					flowMerges++
				}
			}
			// 400 rows: task leaves of 100 rows over QR leaves of 25 (four
			// in-leaf merges per leaf task) under three task-flow merges,
			// or 16 task leaves of 25 rows under fifteen.
			wantLeaf, wantFlow := 12, 3
			if minPart == 25 {
				wantLeaf, wantFlow = 0, 15
			}
			if leafMerges != wantLeaf || flowMerges != wantFlow {
				t.Fatalf("MinPartition %d, values-only=%v: %d in-leaf and %d task-flow merges, want %d and %d", minPart, vo, leafMerges, flowMerges, wantLeaf, wantFlow)
			}
			if got, want := st.DeflationRatio(), ratio(st.Merges, false); got != want {
				t.Errorf("MinPartition %d, values-only=%v: DeflationRatio %v, want %v over the task-flow merges", minPart, vo, got, want)
			}
			if got, want := st.TreeDeflationRatio(), ratio(st.Merges, true); got != want {
				t.Errorf("MinPartition %d, values-only=%v: TreeDeflationRatio %v, want %v over every merge", minPart, vo, got, want)
			}
			if minPart == 25 && st.DeflationRatio() != st.TreeDeflationRatio() {
				t.Errorf("values-only=%v: no in-leaf merge, but the ratios differ: %v and %v", vo, st.DeflationRatio(), st.TreeDeflationRatio())
			}
		}
	}
}

// TestStatsString smoke-tests the statistics report format.
func TestStatsString(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	n := 80
	d, e := randTridiag(rng, n)
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{MinPartition: 16, PanelSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.String()
	for _, want := range []string{"UpdateVect", "LAED4", "tasks", "ops"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats report missing %q:\n%s", want, s)
		}
	}
	if res.Stats.DeflationRatio() < 0 || res.Stats.DeflationRatio() > 1 {
		t.Error("deflation ratio out of range")
	}
}

// TestPackReuseRecorded: a large low-deflation solve must route UpdateVect
// GEMMs through per-merge packed operands (on platforms with the blocked
// kernel) and record the hit/miss/bytes statistics coherently either way.
func TestPackReuseRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	n := 400
	d, e := randTridiag(rng, n)
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{MinPartition: 64, PanelSize: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, bytes, rate := res.Stats.PackReuse()
	if hits+misses == 0 {
		t.Fatal("no UpdateVect GEMMs recorded")
	}
	if hits > 0 && bytes == 0 {
		t.Errorf("packed hits (%d) without packed bytes", hits)
	}
	if hits == 0 && bytes > 0 {
		t.Errorf("packed %d bytes but every GEMM missed", bytes)
	}
	if rate < 0 || rate > 1 {
		t.Errorf("reuse rate %v out of range", rate)
	}
	// The root merge of a random matrix deflates little: with the blocked
	// kernel available its wide GEMMs must reuse the pack across panels.
	if blas.PackWorthwhile(n/2, 32, n/2) && hits < int64(2*(n/(2*32))) {
		t.Errorf("expected pack reuse across panels, hits=%d misses=%d", hits, misses)
	}
}
