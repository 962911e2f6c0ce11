package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"tridiag/internal/lapack"
)

// TestSecularEvaluationsPerRoot pins the cost of the secular iteration:
// evaluations per root (MergeStat.Evals summed over the merges, divided by
// ΣK) on the two lib matrix families, W=2, both lanes, stay within 1% of the
// counts the δ-updating iteration took before each evaluation formed its
// deltas in-lane (seeds 1–3):
//
//	perturbed Legendre n=1200, 6,000 roots:
//	  full 19,884 / 19,896 / 19,886   values 19,880 / 19,889 / 19,890
//	glued W21 n=2000, 2,099 / 2,080 / 2,074 roots:
//	  full  6,745 /  6,704 /  6,723   values  6,739 /  6,716 /  6,706
//
// Recomputing delta from (org, tau) rounds each evaluation differently from
// the updated column, so the counts move by a few evaluations, not by a
// fraction of an iteration per root.
//
// The counts were recorded on the tree of 48-row QR leaves (37/38 rows on
// Legendre, 31/32 on W21). The test keeps that merge set: MinPartition 48
// gives the same task-flow merges, and the merges inside the leaves, which
// split each leaf once more into QR leaves of at most 25 rows, are left out
// of the sum (they are logged with the whole tree).
func TestSecularEvaluationsPerRoot(t *testing.T) {
	type ref struct{ roots, full, values int }
	const minPart = 48
	for _, m := range []struct {
		name string
		n    int
		gen  func(*rand.Rand, int) (d, e []float64)
		refs [3]ref
	}{
		{"perturbed Legendre", 1200, perturbedLegendre, [3]ref{{6000, 19884, 19880}, {6000, 19896, 19889}, {6000, 19886, 19890}}},
		{"glued W21", 2000, gluedW21, [3]ref{{2099, 6745, 6739}, {2080, 6704, 6716}, {2074, 6723, 6706}}},
	} {
		leaves := lapack.PartitionSizes(m.n, minPart)
		inLeaf := bits.Len(uint(len(lapack.PartitionSizes(leaves[len(leaves)-1], lapack.DefaultSmallSize)) - 1))
		for s, r := range m.refs {
			seed := int64(s + 1)
			for _, vo := range []bool{false, true} {
				d, e := m.gen(rand.New(rand.NewSource(seed)), m.n)
				var q []float64
				ldq, want := 0, r.full
				if vo {
					want = r.values
				} else {
					q, ldq = make([]float64, m.n*m.n), m.n
				}
				res, err := SolveDC(m.n, d, e, q, ldq, &Options{Workers: 2, ValuesOnly: vo, MinPartition: minPart})
				if err != nil {
					t.Fatalf("%s seed %d values-only=%v: %v", m.name, seed, vo, err)
				}
				var roots, evals, allRoots, allEvals int64
				for _, ms := range res.Stats.Merges {
					allRoots += int64(ms.K)
					allEvals += ms.Evals
					if ms.Level > inLeaf {
						roots += int64(ms.K)
						evals += ms.Evals
					}
				}
				got, base := float64(evals)/float64(roots), float64(want)/float64(r.roots)
				t.Logf("%s seed %d values-only=%v: %d evaluations over %d roots (%.4f per root; before %.4f); whole tree %d over %d (%.4f)",
					m.name, seed, vo, evals, roots, got, base, allEvals, allRoots, float64(allEvals)/float64(allRoots))
				if got > 1.01*base || got < 0.99*base {
					t.Errorf("%s seed %d values-only=%v: %.4f evaluations per root, want within 1%% of %.4f", m.name, seed, vo, got, base)
				}
				if n := res.Stats.Fallbacks(); n != 0 {
					t.Errorf("%s seed %d values-only=%v: %d bisection or leaf rescues, want 0", m.name, seed, vo, n)
				}
			}
		}
	}
}
