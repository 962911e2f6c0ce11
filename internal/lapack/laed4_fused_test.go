package lapack

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tridiag/internal/blas"
	"tridiag/internal/simd"
)

// The contracts of the fused secular iteration: Dlaed4OrgTau carries tau
// alone and every consumer forms its deltas in-lane, so the tests below pin
// what each step may and may not change against the iteration that kept and
// updated a delta column.

// secularSystem is one Dlaed4 input: strictly increasing poles d, a
// unit-norm z and rho > 0.
type secularSystem struct {
	d, z []float64
	rho  float64
}

// unitNorm scales z to unit 2-norm in place.
func unitNorm(z []float64) {
	blas.Dscal(len(z), 1/blas.Dnrm2(len(z), z, 1), z, 1)
}

// secularFamilies are the regimes of the fused-iteration contracts, each a
// generator of a system of order k: random poles and weights; poles in
// clusters a few ulps to 1e-7 apart; a tiny rho that pins every root to its
// pole; weights spanning twelve orders of magnitude; and glued-W21 systems,
// the jittered Wilkinson W21⁺ spectra the lib-highdefl merges see, with
// each block's boundary eigenvector row as the weights.
var secularFamilies = []struct {
	name string
	gen  func(rng *rand.Rand, k int) secularSystem
}{
	{"random", func(rng *rand.Rand, k int) secularSystem {
		d, z, rho := secularSetup(rng, k, 1)
		return secularSystem{d, z, rho}
	}},
	{"clustered-poles", func(rng *rand.Rand, k int) secularSystem {
		d := make([]float64, k)
		x := 0.0
		for i := range d {
			if i%4 == 0 {
				x += 0.5 + rng.Float64()
			} else {
				x += math.Max(x, 1) * math.Pow(10, -7-8*rng.Float64())
			}
			d[i] = x
		}
		z := make([]float64, k)
		for i := range z {
			z[i] = 0.05 + rng.Float64()
		}
		unitNorm(z)
		return secularSystem{d, z, 0.5 + rng.Float64()}
	}},
	{"tiny-rho", func(rng *rand.Rand, k int) secularSystem {
		d, z, _ := secularSetup(rng, k, 1)
		return secularSystem{d, z, 1e-14 * (1 + rng.Float64())}
	}},
	{"skewed-weights", func(rng *rand.Rand, k int) secularSystem {
		d := make([]float64, k)
		for i := range d {
			d[i] = float64(i) + 0.5*rng.Float64()
		}
		z := make([]float64, k)
		for i := range z {
			z[i] = math.Pow(10, -12*rng.Float64())
			if rng.Intn(2) == 0 {
				z[i] = -z[i]
			}
		}
		unitNorm(z)
		return secularSystem{d, z, 0.1 + 3*rng.Float64()}
	}},
	{"glued-W21", gluedW21System},
}

// gluedW21System builds an order-k secular system from jittered W21⁺ blocks
// (diagonal |i-10| + 1e-5 jitter, unit couplings): the poles are the blocks'
// eigenvalues and each weight is the last row of its eigenvector, as a merge
// over such blocks forms z. Poles closer than the deflation tolerance and
// weights below it are dropped, as the deflation scan would.
func gluedW21System(rng *rand.Rand, k int) secularSystem {
	type pole struct{ d, z float64 }
	var ps []pole
	for len(ps) < 2*k+8 {
		const m = 21
		d, e := make([]float64, m), make([]float64, m-1)
		for i := range d {
			d[i] = math.Abs(float64(i-m/2)) + 1e-5*(2*rng.Float64()-1)
		}
		for i := range e {
			e[i] = 1
		}
		q := make([]float64, m*m)
		if err := Dsteqr(CompIdentity, m, d, e, q, m); err != nil {
			panic(err)
		}
		for j := 0; j < m; j++ {
			ps = append(ps, pole{d[j], q[j*m+m-1]})
		}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].d < ps[b].d })
	d, z := make([]float64, 0, k), make([]float64, 0, k)
	for _, p := range ps {
		if len(d) == k {
			break
		}
		if math.Abs(p.z) < 1e-10 || (len(d) > 0 && p.d-d[len(d)-1] < 1e-9) {
			continue
		}
		d, z = append(d, p.d), append(z, p.z)
	}
	if len(d) < k {
		panic(fmt.Sprintf("glued-W21 system: %d of %d poles", len(d), k))
	}
	unitNorm(z)
	return secularSystem{d, z, 1e-10 * (0.5 + rng.Float64())}
}

// secularOrders are the system orders of the contracts: the smallest
// iterative order, every SIMD tail length, and panel-sized systems.
var secularOrders = []int{3, 4, 5, 17, 64, 257, 1000}

// TestDlaed4OrgTauDeltaIsOptional: the root does not depend on whether the
// caller asks for the delta column — (λ, org, tau) and the evaluation count
// are bit-identical with a nil delta and with a slice — and a returned
// delta is exactly ShiftInto(d, org, tau), the column every consumer forms
// in-lane.
func TestDlaed4OrgTauDeltaIsOptional(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, fam := range secularFamilies {
		for _, k := range secularOrders {
			sys := fam.gen(rng, k)
			delta, shifted := make([]float64, k), make([]float64, k)
			for i := 0; i < k; i++ {
				l1, o1, t1, e1, err1 := Dlaed4OrgTau(k, i, sys.d, sys.z, nil, sys.rho)
				l2, o2, t2, e2, err2 := Dlaed4OrgTau(k, i, sys.d, sys.z, delta, sys.rho)
				if (err1 == nil) != (err2 == nil) || e1 != e2 ||
					!sameFloatBits(l1, l2) || !sameFloatBits(o1, o2) || !sameFloatBits(t1, t2) {
					t.Fatalf("%s k=%d i=%d: nil delta gave (%v, %v, %v, %d, %v), a slice (%v, %v, %v, %d, %v)",
						fam.name, k, i, l1, o1, t1, e1, err1, l2, o2, t2, e2, err2)
				}
				simd.ShiftInto(shifted, sys.d, o2, t2)
				for j := range delta {
					if !sameFloatBits(delta[j], shifted[j]) {
						t.Fatalf("%s k=%d i=%d: delta[%d]=%v, ShiftInto gives %v", fam.name, k, i, j, delta[j], shifted[j])
					}
				}
			}
		}
	}
}

// TestDlaed4MatchesDeltaUpdating compares the fused iteration with the one
// it replaced (dlaed4DeltaUpdating below): the same origin pole, bit for
// bit, and tau within 4 ulp — or, where the two iterations stop at
// different iterates, within twice the accuracy the stopping test
// |w| ≤ ε·erretm guarantees (ε·erretm/w′ at the reference's root). The two
// differ only in how each evaluation's deltas are rounded, so the one can
// stop an iteration earlier than the other, or on the other side of the
// root: on skewed weights, where a tiny weight leaves w flat near its pole,
// both land hundreds of ulp of tau from the exact root.
func TestDlaed4MatchesDeltaUpdating(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	worst, beyond, roots := 0.0, 0, 0
	for _, fam := range secularFamilies {
		for _, k := range secularOrders {
			sys := fam.gen(rng, k)
			delta := make([]float64, k)
			roots += k
			for i := 0; i < k; i++ {
				_, org, tau, _, err := Dlaed4OrgTau(k, i, sys.d, sys.z, nil, sys.rho)
				_, rorg, rtau, bound, _, rerr := dlaed4DeltaUpdating(k, i, sys.d, sys.z, delta, sys.rho)
				if err != nil || rerr != nil {
					t.Fatalf("%s k=%d i=%d: %v / reference %v", fam.name, k, i, err, rerr)
				}
				if !sameFloatBits(org, rorg) {
					t.Fatalf("%s k=%d i=%d: origin %v, reference %v", fam.name, k, i, org, rorg)
				}
				ulps := math.Abs(tau-rtau) / ulpOf(rtau)
				worst = math.Max(worst, ulps)
				if ulps <= 4 {
					continue
				}
				beyond++
				t.Logf("%s k=%d i=%d: tau %v, reference %v: %.1f ulp, %.2f of the stopping bound", fam.name, k, i, tau, rtau, ulps, math.Abs(tau-rtau)/bound)
				if math.Abs(tau-rtau) > 2*bound {
					t.Errorf("%s k=%d i=%d: tau %v differs from the reference %v by %.1f ulp, beyond twice the stopping bound %.3g",
						fam.name, k, i, tau, rtau, ulps, bound)
				}
			}
		}
	}
	t.Logf("%d of %d roots differ by more than 4 ulp; largest tau difference %.1f ulp", beyond, roots, worst)
}

// TestLocalWPanelFromOrgTau: ComputeLocalW reading (org, tau) computes the
// same bits as reading the delta column Dlaed4 writes for the same root.
func TestLocalWPanelFromOrgTau(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, fam := range secularFamilies {
		for _, k := range secularOrders {
			sys := fam.gen(rng, k)
			df, porg, ptau, cols := secularRoots(t, sys)
			got, want := make([]float64, k), make([]float64, k)
			for i := range got {
				got[i], want[i] = 1, 1
			}
			df.LocalWPanel(porg, ptau, got, 0, k)
			for j := 0; j < k; j++ {
				col := cols[j*k : j*k+k]
				for i := range want {
					if i == j {
						want[i] *= col[i]
					} else {
						want[i] *= col[i] / (df.Dlamda[i] - df.Dlamda[j])
					}
				}
			}
			for i := range got {
				if !sameFloatBits(got[i], want[i]) {
					t.Fatalf("%s k=%d: wloc[%d]=%v from (org, tau), %v from delta columns", fam.name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestVectorsAndUpdateZFromOrgTau: ComputeVect and the values-only UpdateZ
// forming each secular vector in grouped order from (org, tau) agree with
// the delta-column forms they replaced (vectors formed in secular order from
// Dlaed4's columns by the same kernel, normalized, then permuted and
// dotted). The grouping is a shuffled GroupToSecular with a three-way
// column-type split, as a deflated merge has. The unnormalized entries are
// the same bits (TestShiftedKernelsFormTheShift in internal/simd); what
// changes is the order of the sums: ‖u‖² now runs in grouped order, and the
// carrier dots are lane-ordered over the zero-padded rows and scaled after
// summing. Each reordered sum of m terms may move by m·ε of its absolute
// sum, so the bound is 4ε plus that for the longest accumulation chain,
// m = ⌈k/4⌉+4: relative to each entry of S, and relative to Σ|x·u| for the
// dots, whose terms may cancel. The test logs the largest difference.
func TestVectorsAndUpdateZFromOrgTau(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var worstS, worstZ float64
	for _, fam := range secularFamilies {
		for _, k := range secularOrders {
			sys := fam.gen(rng, k)
			df, porg, ptau, cols := secularRoots(t, sys)
			df.GroupToSecular = rng.Perm(k)
			c1 := k / 3
			c12 := c1 + (k-c1)/2
			df.Ctot = [4]int{c1, c12 - c1, k - c12, 0}
			wloc := make([]float64, k)
			for i := range wloc {
				wloc[i] = 1
			}
			df.LocalWPanel(porg, ptau, wloc, 0, k)
			what, poles := make([]float64, k), make([]float64, k)
			df.FinishW(what, poles, append([]float64(nil), wloc...))
			zhat := make([]float64, k) // ẑ in secular order, the old layout
			for g, i := range df.GroupToSecular {
				zhat[i] = what[g]
			}
			gtop, gbot := make([]float64, k), make([]float64, k)
			for g := range gtop {
				if g < c12 {
					gtop[g] = 2*rng.Float64() - 1
				}
				if g >= c1 {
					gbot[g] = 2*rng.Float64() - 1
				}
			}

			s := make([]float64, k*k)
			df.VectorsPanel(s, what, poles, porg, ptau, 0, k)
			flp := make([]float64, 2*k)
			df.UpdateZPanelVO(what, poles, porg, ptau, gtop, gbot, flp, 0, k)

			chain := float64((k+3)/4 + 4)
			u, tmp := make([]float64, k), make([]float64, k)
			for j := 0; j < k; j++ {
				// RatioSumSq with a zero shift is the old delta-column kernel.
				sumsq := simd.RatioSumSq(tmp, zhat, cols[j*k:j*k+k], 0, 0)
				inv := 1 / math.Sqrt(sumsq)
				for g, i := range df.GroupToSecular {
					u[g] = tmp[i] * inv
				}
				for g := range u {
					diff := math.Abs(s[j*k+g] - u[g])
					worstS = math.Max(worstS, diff/(Eps*math.Abs(u[g])))
					if diff > (4+chain)*Eps*math.Abs(u[g]) {
						t.Fatalf("%s k=%d: S(%d,%d)=%v, delta-column form %v", fam.name, k, g, j, s[j*k+g], u[g])
					}
				}
				f := blas.Ddot(c12, gtop, 1, u, 1)
				l := blas.Ddot(k-c1, gbot[c1:], 1, u[c1:], 1)
				var fmag, lmag float64
				for g := range u {
					fmag += math.Abs(gtop[g] * u[g])
					lmag += math.Abs(gbot[g] * u[g])
				}
				ef, el := math.Abs(flp[2*j]-f), math.Abs(flp[2*j+1]-l)
				worstZ = math.Max(worstZ, math.Max(ef/(Eps*fmag), el/(Eps*lmag)))
				if ef > (4+2*chain)*Eps*fmag || el > (4+2*chain)*Eps*lmag {
					t.Fatalf("%s k=%d j=%d: carrier (%v, %v), delta-column form (%v, %v)", fam.name, k, j, flp[2*j], flp[2*j+1], f, l)
				}
			}
		}
	}
	t.Logf("largest differences: S %.1f ε of the entry, carrier %.1f ε of Σ|x·u|", worstS, worstZ)
}

// secularRoots solves every root of sys as the LAED4 task does, returning
// the merge view, each root's (org, tau), and the k×k delta columns Dlaed4
// writes for the same roots when asked.
func secularRoots(t *testing.T, sys secularSystem) (df *Deflation, porg, ptau, cols []float64) {
	t.Helper()
	k := len(sys.d)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	df = &Deflation{N: k, K: k, Rho: sys.rho, Dlamda: sys.d, W: sys.z, GroupToSecular: perm, Ctot: [4]int{k, 0, 0, 0}}
	lam := make([]float64, k)
	porg, ptau = make([]float64, k), make([]float64, k)
	if _, _, err := df.SecularPanel(lam, porg, ptau, 0, k); err != nil {
		t.Fatal(err)
	}
	cols = make([]float64, k*k)
	for j := 0; j < k; j++ {
		if _, err := Dlaed4(k, j, sys.d, sys.z, cols[j*k:j*k+k], sys.rho); err != nil {
			t.Fatal(err)
		}
	}
	return df, porg, ptau, cols
}

// ulpOf is the spacing of the floats at |x|.
func ulpOf(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// sameFloatBits reports whether a and b are the same float64 bit for bit.
func sameFloatBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// dlaed4DeltaUpdating is the secular iteration this package used before the
// evaluation formed its deltas in-lane, kept as the reference for
// TestDlaed4MatchesDeltaUpdating: it keeps the full delta column, shifts it
// by the step eta after every iteration (delta[j] -= eta) and evaluates the
// updated column. delta must be a slice of length k. Besides the root it
// returns bound, the accuracy its stopping test guarantees for tau.
func dlaed4DeltaUpdating(k, i int, d, z, delta []float64, rho float64) (lam, org, tau, bound float64, evals int, err error) {
	const maxit = 75
	// The a-posteriori accuracy of the returned tau: ε·erretm/w' at the last
	// evaluation, the distance its stopping test |w| ≤ ε·erretm allows.
	var erretmN, dwN float64
	switch {
	case k <= 0:
		return 0, 0, 0, 0, 0, fmt.Errorf("lapack: Dlaed4: k=%d", k)
	case i < 0 || i >= k:
		return 0, 0, 0, 0, 0, fmt.Errorf("lapack: Dlaed4: index %d out of range [0,%d)", i, k)
	case k == 1:
		delta[0] = 1
		t := rho * z[0] * z[0]
		return d[0] + t, d[0], t, 0, 0, nil
	case k == 2:
		lam, err = Dlaed5(i, d, z, delta, rho)
		return lam, 0, 0, 0, 0, err
	}

	eps := Eps
	rhoinv := 1 / rho

	if i == k-1 {
		// The last eigenvalue: root in (d[k-1], d[k-1]+rho).
		n := k
		ii := n - 2 // index of the second-to-last pole (0-based)

		// Initial guess: evaluate at the midpoint d[n-1] + rho/2.
		midpt := rho / 2
		simd.ShiftInto(delta[:n], d, d[n-1], midpt)
		psi := simd.ShiftedSumRatios(delta[:n-2], z[:n-2], 0, 0)
		c := rhoinv + psi
		w := c + z[ii]*z[ii]/delta[n-2] + z[n-1]*z[n-1]/delta[n-1]

		var tau, dltlb, dltub float64
		if w <= 0 {
			// Root in [d[n-1]+rho/2, d[n-1]+rho].
			temp := z[n-2]*z[n-2]/(d[n-1]-d[n-2]+rho) + z[n-1]*z[n-1]/rho
			if c <= temp {
				tau = rho
			} else {
				del := d[n-1] - d[n-2]
				a := -c*del + z[n-2]*z[n-2] + z[n-1]*z[n-1]
				b := z[n-1] * z[n-1] * del
				if a < 0 {
					tau = 2 * b / (math.Sqrt(a*a+4*b*c) - a)
				} else {
					tau = (a + math.Sqrt(a*a+4*b*c)) / (2 * c)
				}
			}
			dltlb, dltub = midpt, rho
		} else {
			del := d[n-1] - d[n-2]
			a := -c*del + z[n-2]*z[n-2] + z[n-1]*z[n-1]
			b := z[n-1] * z[n-1] * del
			if a < 0 {
				tau = 2 * b / (math.Sqrt(a*a+4*b*c) - a)
			} else {
				tau = (a + math.Sqrt(a*a+4*b*c)) / (2 * c)
			}
			dltlb, dltub = 0, midpt
		}
		simd.ShiftInto(delta[:n], d, d[n-1], tau)

		// Final delta is recomputed from (org, tau) rather than left in its
		// incrementally-updated form, so the same expression replayed later
		// reproduces it exactly.
		ret := func(ferr error) (float64, float64, float64, float64, int, error) {
			simd.ShiftInto(delta[:n], d, d[n-1], tau)
			return d[n-1] + tau, d[n-1], tau, Eps * erretmN / dwN, evals, ferr
		}

		evaluate := func() (w, dpsi, dphi, erretm float64) {
			evals++
			// ψ over the leading n-1 terms in one vectorized pass. The
			// reference adds the running prefix of ψ to erretm after every
			// term, which weights term j by (n-1)-j: w0=n-1, wstep=-1. The
			// pole terms j=n-2 and j=n-1 stay scalar.
			psi, dpsiv, werr := simd.SecularSums(z[:n-2], delta[:n-2], 0, 0, float64(n-1), -1)
			dpsi = dpsiv
			temp := z[n-2] / delta[n-2]
			psi += z[n-2] * temp
			dpsi += temp * temp
			erretm = math.Abs(werr + z[n-2]*temp)
			temp = z[n-1] / delta[n-1]
			phi := z[n-1] * temp
			dphi = temp * temp
			erretm = 8*(-phi-psi) + erretm - phi + rhoinv + math.Abs(tau)*(dpsi+dphi)
			w = rhoinv + phi + psi
			erretmN, dwN = erretm, dpsi+dphi
			return w, dpsi, dphi, erretm
		}

		w, dpsi, dphi, erretm := evaluate()
		if math.Abs(w) <= eps*erretm {
			return ret(nil)
		}
		if w <= 0 {
			dltlb = math.Max(dltlb, tau)
		} else {
			dltub = math.Min(dltub, tau)
		}

		for iter := 0; iter < maxit; iter++ {
			c := w - delta[n-2]*dpsi - delta[n-1]*dphi
			a := (delta[n-2]+delta[n-1])*w - delta[n-2]*delta[n-1]*(dpsi+dphi)
			b := delta[n-2] * delta[n-1] * w
			if c < 0 {
				c = math.Abs(c)
			}
			var eta float64
			switch {
			case c == 0:
				eta = dltub - tau
			case a >= 0:
				eta = (a + math.Sqrt(math.Abs(a*a-4*b*c))) / (2 * c)
			default:
				eta = 2 * b / (a - math.Sqrt(math.Abs(a*a-4*b*c)))
			}
			// eta should have sign opposite to w; fall back to Newton.
			if w*eta > 0 {
				eta = -w / (dpsi + dphi)
			}
			if temp := tau + eta; temp > dltub || temp < dltlb {
				if w < 0 {
					eta = (dltub - tau) / 2
				} else {
					eta = (dltlb - tau) / 2
				}
			}
			simd.ShiftInto(delta[:n], delta, 0, eta) // delta[j] -= eta
			tau += eta

			w, dpsi, dphi, erretm = evaluate()
			if math.Abs(w) <= eps*erretm {
				return ret(nil)
			}
			if w <= 0 {
				dltlb = math.Max(dltlb, tau)
			} else {
				dltub = math.Min(dltub, tau)
			}
		}
		return ret(fmt.Errorf("lapack: Dlaed4: no convergence for last eigenvalue (i=%d, k=%d) after %d iterations: |w|=%.3e > tol=%.3e", i, k, maxit, math.Abs(w), eps*erretm))
	}

	// Interior eigenvalue: root in (d[i], d[i+1]).
	ip1 := i + 1
	del := d[ip1] - d[i]
	midpt := del / 2
	simd.ShiftInto(delta[:k], d, d[i], midpt)

	psi0 := simd.ShiftedSumRatios(delta[:i], z[:i], 0, 0)
	phi0 := simd.ShiftedSumRatios(delta[i+2:k], z[i+2:k], 0, 0)
	c := rhoinv + psi0 + phi0
	w := c + z[i]*z[i]/delta[i] + z[ip1]*z[ip1]/delta[ip1]

	var orgati bool
	var dltlb, dltub float64
	if w > 0 {
		// Root is in the left half: origin at d[i].
		orgati = true
		a := c*del + z[i]*z[i] + z[ip1]*z[ip1]
		b := z[i] * z[i] * del
		if a > 0 {
			tau = 2 * b / (a + math.Sqrt(math.Abs(a*a-4*b*c)))
		} else {
			tau = (a - math.Sqrt(math.Abs(a*a-4*b*c))) / (2 * c)
		}
		dltlb, dltub = 0, midpt
	} else {
		// Root is in the right half: origin at d[i+1].
		orgati = false
		a := c*del - z[i]*z[i] - z[ip1]*z[ip1]
		b := z[ip1] * z[ip1] * del
		if a < 0 {
			tau = 2 * b / (a - math.Sqrt(math.Abs(a*a+4*b*c)))
		} else {
			tau = -(a + math.Sqrt(math.Abs(a*a+4*b*c))) / (2 * c)
		}
		dltlb, dltub = -midpt, 0
	}

	org = d[i]
	ii := i
	if !orgati {
		org = d[ip1]
		ii = ip1
	}
	simd.ShiftInto(delta[:k], d, org, tau)

	ret := func(ferr error) (float64, float64, float64, float64, int, error) {
		simd.ShiftInto(delta[:k], d, org, tau)
		return org + tau, org, tau, Eps * erretmN / dwN, evals, ferr
	}

	evaluate := func() (w, dw, dpsi, dphi, erretm float64) {
		evals++
		// ψ over [0,ii) and φ over (ii,k) in two vectorized passes. The
		// reference accumulates erretm as a running prefix after every term:
		// the forward ψ loop maps to weights ii-j (w0=ii, wstep=-1) and the
		// descending φ loop to weights j-ii over the ascending slice (w0=1,
		// wstep=+1). The pole terms j==i and j==i+1 stay scalar so the
		// iteration sees them at full precision.
		var psi, phi, werrPsi, werrPhi float64
		if orgati {
			psi, dpsi, werrPsi = simd.SecularSums(z[:i], delta[:i], 0, 0, float64(i), -1)
			phi, dphi, werrPhi = simd.SecularSums(z[i+2:k], delta[i+2:k], 0, 0, 2, 1)
			t := z[ip1] / delta[ip1]
			phi += z[ip1] * t
			dphi += t * t
			werrPhi += z[ip1] * t
		} else {
			psi, dpsi, werrPsi = simd.SecularSums(z[:i], delta[:i], 0, 0, float64(i+1), -1)
			t := z[i] / delta[i]
			psi += z[i] * t
			dpsi += t * t
			werrPsi += z[i] * t
			phi, dphi, werrPhi = simd.SecularSums(z[ip1+1:k], delta[ip1+1:k], 0, 0, 1, 1)
		}
		erretm = math.Abs(math.Abs(werrPsi) + werrPhi)
		w = rhoinv + phi + psi
		// Add back the ii-th (origin) term.
		temp := z[ii] / delta[ii]
		dw = dpsi + dphi + temp*temp
		temp = z[ii] * temp
		w += temp
		erretm = 8*(phi-psi) + erretm + 2*rhoinv + 3*math.Abs(temp) + math.Abs(tau)*dw
		erretmN, dwN = erretm, dw
		return w, dw, dpsi, dphi, erretm
	}

	w, dw, dpsi, dphi, erretm := evaluate()
	if math.Abs(w) <= eps*erretm {
		return ret(nil)
	}
	if w <= 0 {
		dltlb = math.Max(dltlb, tau)
	} else {
		dltub = math.Min(dltub, tau)
	}

	for iter := 0; iter < maxit; iter++ {
		// Middle-way rational step on the two neighbouring poles.
		var cc float64
		if orgati {
			t := z[i] / delta[i]
			cc = w - delta[ip1]*dw - (d[i]-d[ip1])*t*t
		} else {
			t := z[ip1] / delta[ip1]
			cc = w - delta[i]*dw - (d[ip1]-d[i])*t*t
		}
		a := (delta[i]+delta[ip1])*w - delta[i]*delta[ip1]*dw
		b := delta[i] * delta[ip1] * w
		var eta float64
		switch {
		case cc == 0:
			if a == 0 {
				if orgati {
					a = z[i]*z[i] + delta[ip1]*delta[ip1]*(dpsi+dphi)
				} else {
					a = z[ip1]*z[ip1] + delta[i]*delta[i]*(dpsi+dphi)
				}
			}
			eta = b / a
		case a <= 0:
			eta = (a - math.Sqrt(math.Abs(a*a-4*b*cc))) / (2 * cc)
		default:
			eta = 2 * b / (a + math.Sqrt(math.Abs(a*a-4*b*cc)))
		}
		if w*eta >= 0 {
			eta = -w / dw
		}
		if temp := tau + eta; temp > dltub || temp < dltlb {
			if w < 0 {
				eta = (dltub - tau) / 2
			} else {
				eta = (dltlb - tau) / 2
			}
		}
		simd.ShiftInto(delta[:k], delta, 0, eta) // delta[j] -= eta
		tau += eta

		w, dw, dpsi, dphi, erretm = evaluate()
		if math.Abs(w) <= eps*erretm {
			return ret(nil)
		}
		if w <= 0 {
			dltlb = math.Max(dltlb, tau)
		} else {
			dltub = math.Min(dltub, tau)
		}
	}
	return ret(fmt.Errorf("lapack: Dlaed4: no convergence for eigenvalue %d of %d after %d iterations: |w|=%.3e > tol=%.3e", i, k, maxit, math.Abs(w), eps*erretm))
}

// TestSecularVectorsNormGuard drives ComputeVect's and UpdateZ's fallback
// for a vector whose squared norm leaves the normal range: scaling ẑ by
// 2^±600 (exact) makes ‖u‖² overflow or underflow, and both kernels must
// then normalize with the scaled 2-norm and give the unscaled result.
func TestSecularVectorsNormGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const k = 37
	df, porg, ptau, _ := secularRoots(t, secularFamilies[0].gen(rng, k))
	wloc := make([]float64, k)
	for i := range wloc {
		wloc[i] = 1
	}
	df.LocalWPanel(porg, ptau, wloc, 0, k)
	what, poles := make([]float64, k), make([]float64, k)
	df.FinishW(what, poles, wloc)
	gtop, gbot := make([]float64, k), make([]float64, k)
	for g := range gtop {
		gtop[g], gbot[g] = 2*rng.Float64()-1, 2*rng.Float64()-1
	}
	s0, f0 := make([]float64, k*k), make([]float64, 2*k)
	df.VectorsPanel(s0, what, poles, porg, ptau, 0, k)
	df.UpdateZPanelVO(what, poles, porg, ptau, gtop, gbot, f0, 0, k)
	for _, scale := range []float64{0x1p600, 0x1p-600} {
		scaled := make([]float64, k)
		for i := range scaled {
			scaled[i] = what[i] * scale
		}
		s, f := make([]float64, k*k), make([]float64, 2*k)
		df.VectorsPanel(s, scaled, poles, porg, ptau, 0, k)
		df.UpdateZPanelVO(scaled, poles, porg, ptau, gtop, gbot, f, 0, k)
		for i := range s {
			if math.Abs(s[i]-s0[i]) > 8*Eps {
				t.Fatalf("scale %g: S[%d]=%v, unscaled %v", scale, i, s[i], s0[i])
			}
		}
		for i := range f {
			if math.Abs(f[i]-f0[i]) > 8*Eps*float64(k) {
				t.Fatalf("scale %g: carrier[%d]=%v, unscaled %v", scale, i, f[i], f0[i])
			}
		}
	}
}
