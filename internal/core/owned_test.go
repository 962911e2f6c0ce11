package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"tridiag/internal/faultinject"
	"tridiag/internal/pool"
	"tridiag/internal/testmat"
)

// nanMatrix returns an n×n workspace filled with NaN, which any read of a
// stale entry propagates loudly.
func nanMatrix(n int) []float64 {
	q := make([]float64, n*n)
	for i := range q {
		q[i] = math.NaN()
	}
	return q
}

// TestOwnedVectorsMatchCallerQ solves each matrix twice per configuration:
// once into a NaN-poisoned caller q, and once with q == nil, so the solve
// allocates V beside the leaves and its root sort writes only span rows.
// λ and V must agree bit for bit. The matrices are Table III types, glued
// W21 (close-pair rotations, about 80% deflation, so CopyBackDeflated moves
// vectors between the children's rows), perturbed Legendre (almost none),
// the zero matrix and a single leaf.
func TestOwnedVectorsMatchCallerQ(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type matrix struct {
		name string
		d, e []float64
	}
	var mats []matrix
	for _, typ := range []int{2, 4, 10, 11, 12} {
		m, err := testmat.Type(typ, 200, rng)
		if err != nil {
			t.Fatal(err)
		}
		mats = append(mats, matrix{m.Name, m.D, m.E})
	}
	d, e := gluedW21(rng, 400)
	mats = append(mats, matrix{"glued-w21", d, e})
	d, e = perturbedLegendre(rng, 300)
	mats = append(mats, matrix{"legendre", d, e})
	mats = append(mats, matrix{"zero", make([]float64, 100), make([]float64, 99)})
	d, e = randTridiag(rng, 30)
	mats = append(mats, matrix{"single-leaf", d, e[:29]})

	var configs []Options
	for _, mode := range []Mode{ModeTaskFlow, ModeLevelSync, ModeScaLAPACK} {
		for _, w := range []int{1, 2, 4} {
			configs = append(configs, Options{Mode: mode, Workers: w})
		}
	}
	configs = append(configs, Options{Mode: ModeSequential}, Options{Mode: ModeForkJoin, Workers: 2})
	for _, opts := range configs {
		t.Run(fmt.Sprintf("%s-w%d", opts.Mode, opts.Workers), func(t *testing.T) {
			for _, m := range mats {
				n := len(m.d)
				solve := func(q []float64) ([]float64, []float64) {
					d := append([]float64(nil), m.d...)
					e := append([]float64(nil), m.e...)
					o := opts
					res, err := SolveDC(n, d, e, q, n, &o)
					if err != nil {
						t.Fatalf("%s: %v", m.name, err)
					}
					if q == nil {
						q = res.Q
					} else if res.Q != nil {
						t.Fatalf("%s: the solve allocated V although the caller passed q", m.name)
					}
					if len(q) != n*n {
						t.Fatalf("%s: V has %d entries, want %d", m.name, len(q), n*n)
					}
					return d, q
				}
				dCaller, qCaller := solve(nanMatrix(n))
				dOwned, qOwned := solve(nil)
				if !sameBits(dCaller, dOwned) {
					t.Fatalf("%s: eigenvalues differ between an owned V and a caller's q", m.name)
				}
				for i := range qCaller {
					if math.Float64bits(qCaller[i]) != math.Float64bits(qOwned[i]) {
						t.Fatalf("%s: V entry %d (row %d, column %d) differs: owned %v, caller's q %v",
							m.name, i, i%n, i/n, qOwned[i], qCaller[i])
					}
				}
			}
		})
	}
}

// TestRootSortWritesSpanRows counts the entries the root sort writes on
// glued W21 at n=2000, where the spans cover about a tenth of V: on an owned
// V, which is +0 outside the spans, the sort writes at most a quarter of
// n²; on a caller's q it sets all n² entries.
func TestRootSortWritesSpanRows(t *testing.T) {
	const n = 2000
	d0, e0 := gluedW21(rand.New(rand.NewSource(7)), n)
	for _, owned := range []bool{false, true} {
		var q []float64
		if !owned {
			q = make([]float64, n*n)
		}
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		res, err := SolveDC(n, d, e, q, n, &Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// The plan task counts n; the panels count what they write.
		words := res.Stats.Ops["SortEigenvectors"] - n
		frac := float64(words) / (n * n)
		t.Logf("owned=%v: the root sort wrote %d entries, %.1f%% of n²", owned, words, 100*frac)
		if owned && frac > 0.25 {
			t.Errorf("owned V: the root sort wrote %.1f%% of n², want ≤ 25%%", 100*frac)
		}
		if !owned && words != n*n {
			t.Errorf("caller's q: the root sort set %d entries, want n² = %d", words, n*n)
		}
	}
}

// TestLeafBlocksReturned: the leaves solve into pooled blocks that their
// parent merges place into V. A cancellation right after the first task
// (while the leaves are still being submitted, before V is allocated) and
// an injected leaf failure both skip those merges, so the solve must return
// the blocks after its runtime stops: the pool accountant is back at its
// baseline after every solve, with an owned V and with a caller's q.
func TestLeafBlocksReturned(t *testing.T) {
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(37))
	const n = 600
	for _, owned := range []bool{false, true} {
		failed := map[string]int{}
		for i := 0; i < 12; i++ {
			d, e := gluedW21(rng, n)
			var q []float64
			if !owned {
				q = make([]float64, n*n)
			}
			ctx, cancel := context.WithCancel(context.Background())
			opts := &Options{Workers: 2, MinPartition: 24}
			kind := "leaf failure"
			if i%2 == 0 {
				faultinject.Enable(int64(i), faultinject.Probe{Class: "STEDC", Kind: faultinject.KindError, P: 0.1})
			} else {
				kind = "cancellation"
				var beats atomic.Int64
				opts.Progress = func() {
					if beats.Add(1) == 1 {
						cancel()
					}
				}
			}
			base := pool.InUseBytes()
			_, err := SolveDCContext(ctx, n, d, e, q, n, opts)
			faultinject.Disable()
			cancel()
			if got := pool.InUseBytes(); got != base {
				t.Errorf("owned=%v run %d (%s, err=%v): pool accountant %d bytes off baseline", owned, i, kind, err, got-base)
			}
			if kind == "cancellation" && err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("owned=%v run %d: cancelled solve returned %v, want context.Canceled", owned, i, err)
			}
			if err != nil {
				failed[kind]++
			}
		}
		for _, kind := range []string{"leaf failure", "cancellation"} {
			if failed[kind] == 0 {
				t.Errorf("owned=%v: no %s ever failed a solve; the release was not exercised", owned, kind)
			}
		}
	}
}
