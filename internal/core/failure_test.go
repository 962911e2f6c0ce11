package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"tridiag/internal/faultinject"
	"tridiag/internal/pool"
	"tridiag/internal/testmat"
)

// TestCorruptedInputSurfacesRootError: a NaN in the input corrupts the very
// first task (Scale fails inside Dlascl). The runtime must skip every
// downstream task instead of letting them panic on the poisoned data, and
// SolveDC must report exactly the root cause — not a secondary panic from a
// merge that should never have run.
func TestCorruptedInputSurfacesRootError(t *testing.T) {
	n := 512
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = 1
	}
	d[200] = math.NaN()
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{
		MinPartition: 64, PanelSize: 32, Workers: 4, CaptureGraph: true,
	})
	if err == nil {
		t.Fatal("corrupted input must surface an error")
	}
	if !strings.Contains(err.Error(), "Scale") {
		t.Errorf("error does not name the failing root task: %v", err)
	}
	// The root cause must not be masked by a downstream task's panic.
	for _, downstream := range []string{"STEDC", "deflate", "LAED4", "ReduceW", "Dlamrg"} {
		if strings.Contains(err.Error(), downstream) {
			t.Errorf("root error masked by downstream task %q: %v", downstream, err)
		}
	}
	if res == nil || res.Graph == nil {
		t.Fatal("graph capture missing")
	}
	ran, canceled := 0, 0
	for _, ti := range res.Graph.Tasks {
		switch {
		case ti.Canceled:
			canceled++
			if ti.Worker >= 0 {
				t.Errorf("canceled task %q ran on worker %d", ti.Label, ti.Worker)
			}
		case ti.Worker >= 0:
			ran++
		default:
			t.Errorf("task %q neither ran nor was canceled", ti.Label)
		}
	}
	if ran != 1 {
		t.Errorf("%d tasks ran after the root failure, want only the failing Scale task", ran)
	}
	if canceled != len(res.Graph.Tasks)-1 {
		t.Errorf("canceled %d of %d tasks, want all downstream", canceled, len(res.Graph.Tasks))
	}
}

// TestFailedMergeReturnsWorkspace: an injected LAED4 failure or a mid-solve
// cancellation skips the tasks that would release a merge's workspace. The
// solve must return those buffers once the runtime has shut down, in both
// lanes, so the pool accountant is back at its baseline after every solve.
func TestFailedMergeReturnsWorkspace(t *testing.T) {
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(31))
	for _, valuesOnly := range []bool{false, true} {
		failed := map[string]int{}
		for i := 0; i < 16; i++ {
			m, err := testmat.Type(4, 160+rng.Intn(60), rng)
			if err != nil {
				t.Fatal(err)
			}
			n := m.N()
			var q []float64
			ldq := 0
			if !valuesOnly {
				q, ldq = make([]float64, n*n), n
			}
			ctx, cancel := context.WithCancel(context.Background())
			opts := &Options{Workers: 4, MinPartition: 24, ValuesOnly: valuesOnly}
			kind := "LAED4 failure"
			if i%2 == 0 {
				// LAED4 sits mid-merge: its failure strands the workspace
				// ComputeDeflation already took.
				faultinject.Enable(int64(i), faultinject.Probe{Class: "LAED4", Kind: faultinject.KindError, P: 0.5})
			} else {
				kind = "cancellation"
				var beats atomic.Int64
				stop := int64(10 + 9*i)
				opts.Progress = func() {
					if beats.Add(1) == stop {
						cancel()
					}
				}
			}
			base := pool.InUseBytes()
			_, serr := SolveDCContext(ctx, n, m.D, m.E, q, ldq, opts)
			faultinject.Disable()
			cancel()
			if got := pool.InUseBytes(); got != base {
				t.Errorf("valuesOnly=%v run %d (%s, err=%v): pool accountant %d bytes off baseline",
					valuesOnly, i, kind, serr, got-base)
			}
			if serr != nil {
				failed[kind]++
			}
		}
		for _, kind := range []string{"LAED4 failure", "cancellation"} {
			if failed[kind] == 0 {
				t.Errorf("valuesOnly=%v: no %s ever failed a solve; the release was not exercised", valuesOnly, kind)
			}
		}
	}
}

// TestParallelModesIdenticalEigenpairs: the three parallel execution models
// run the same sequential task semantics, so on the paper's matrix types they
// must produce identical eigenpairs — eigenvalues to roundoff and eigenvector
// columns matching up to sign — not merely valid decompositions.
func TestParallelModesIdenticalEigenpairs(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for _, typ := range []int{2, 4, 10, 11, 12} {
		m, err := testmat.Type(typ, 120, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := m.N()
		nrm := 1.0
		for _, v := range m.D {
			nrm = math.Max(nrm, math.Abs(v))
		}
		for _, v := range m.E {
			nrm = math.Max(nrm, math.Abs(v))
		}
		var refD, refQ []float64
		for _, mode := range []Mode{ModeTaskFlow, ModeLevelSync, ModeScaLAPACK} {
			d := append([]float64(nil), m.D...)
			e := append([]float64(nil), m.E...)
			q := make([]float64, n*n)
			if _, err := SolveDC(n, d, e, q, n, &Options{
				Mode: mode, Workers: 4, MinPartition: 20, PanelSize: 16,
			}); err != nil {
				t.Fatalf("type %d mode %v: %v", typ, mode, err)
			}
			if refD == nil {
				refD, refQ = d, q
				continue
			}
			for i := 0; i < n; i++ {
				if math.Abs(d[i]-refD[i]) > 1e-12*nrm*float64(n) {
					t.Errorf("type %d mode %v: eigenvalue %d differs: %v vs %v", typ, mode, i, d[i], refD[i])
				}
			}
			for j := 0; j < n; j++ {
				col := q[j*n : j*n+n]
				ref := refQ[j*n : j*n+n]
				sign := 1.0
				if col[blasIamax(col)]*ref[blasIamax(col)] < 0 {
					sign = -1
				}
				for i := 0; i < n; i++ {
					if math.Abs(sign*col[i]-ref[i]) > 1e-10 {
						t.Errorf("type %d mode %v: eigenvector %d differs at row %d: %v vs %v",
							typ, mode, j, i, sign*col[i], ref[i])
						break
					}
				}
			}
		}
	}
}

// blasIamax returns the index of the entry with largest magnitude.
func blasIamax(x []float64) int {
	best, bi := 0.0, 0
	for i, v := range x {
		if a := math.Abs(v); a > best {
			best, bi = a, i
		}
	}
	return bi
}
