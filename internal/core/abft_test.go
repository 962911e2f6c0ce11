package core

import (
	"math"
	"math/rand"
	"testing"

	"tridiag/internal/blas"
)

// TestABFTAlwaysOn pins that the silent-corruption defenses (DESIGN.md §18)
// run on every task-flow solve, with no way to turn them off: the packed
// UpdateVect GEMMs are checksummed, every merge checks its trace invariant
// (so Invariants ≥ merges), the values-only lane, which has no GEMMs, still
// checks the invariants, and a solve whose merges all deflate completely —
// no secular panel runs — still checks each merge's trace.
func TestABFTAlwaysOn(t *testing.T) {
	clean := func(name string, ab ABFTStats) {
		t.Helper()
		if ab.ChecksumFailures+ab.InvariantFailures+ab.Retries != 0 {
			t.Errorf("%s: clean solve reported detections: %+v", name, ab)
		}
	}

	rng := rand.New(rand.NewSource(600))
	n := 600
	d0, e0 := randTridiag(rng, n)
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ab := res.Stats.ABFT()
	clean("full", ab)
	// Only packed GEMMs carry checksum rows, and the packed path needs the
	// assembly micro-kernel; the root merge of a random matrix deflates
	// little, so its GEMMs take that path wherever it exists.
	if blas.PackWorthwhile(n/2, 32, n/2) && ab.Checksums == 0 {
		t.Errorf("full: no GEMM checksums verified: %+v", ab)
	}
	if ab.Invariants < int64(len(res.Stats.Merges)) {
		t.Errorf("full: %d invariant checks over %d merges", ab.Invariants, len(res.Stats.Merges))
	}

	d = append(d[:0], d0...)
	e = append(e[:0], e0...)
	res, err = SolveDC(n, d, e, nil, 0, &Options{ValuesOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ab = res.Stats.ABFT()
	clean("values-only", ab)
	if ab.Checksums != 0 || ab.Invariants == 0 {
		t.Errorf("values-only: want invariants and no checksums, got %+v", ab)
	}

	// Wilkinson W21 blocks glued by 1e-14, with the leaves on the block
	// boundaries: every coupling is below the deflation threshold.
	nw := 21 * 16
	dw := make([]float64, nw)
	ew := make([]float64, nw-1)
	for i := range dw {
		dw[i] = math.Abs(float64(i%21 - 10))
	}
	for i := range ew {
		ew[i] = 1
		if (i+1)%21 == 0 {
			ew[i] = 1e-14
		}
	}
	q = make([]float64, nw*nw)
	res, err = SolveDC(nw, dw, ew, q, nw, &Options{MinPartition: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Stats.Merges {
		if m.K != 0 {
			t.Fatalf("glued: merge %+v did not deflate completely", m)
		}
	}
	ab = res.Stats.ABFT()
	clean("glued", ab)
	if ab.Invariants < int64(len(res.Stats.Merges)) {
		t.Errorf("glued: %d invariant checks over %d merges", ab.Invariants, len(res.Stats.Merges))
	}
}
