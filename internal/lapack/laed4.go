package lapack

import (
	"fmt"
	"math"

	"tridiag/internal/simd"
)

// Dlaed4 computes the i-th (0-based) eigenvalue of the rank-one modified
// diagonal matrix D + rho * z * zᵀ, following LAPACK DLAED4 (rational
// interpolation, the "middle way", with bisection safeguards).
//
// Requirements: d is strictly increasing, rho > 0, and z has unit 2-norm with
// no zero components (the deflation step guarantees all of these).
//
// On return, lam is the eigenvalue and delta[j] holds d[j]-lam computed
// without cancellation (the difference is accumulated relative to the origin
// pole). For k == 1, delta[0] = 1; for k == 2 delta holds the normalized
// eigenvector components instead (see Dlaed5), matching LAPACK semantics.
func Dlaed4(k, i int, d, z, delta []float64, rho float64) (lam float64, err error) {
	lam, _, _, _, err = Dlaed4OrgTau(k, i, d, z, delta, rho)
	return lam, err
}

// Dlaed4OrgTau is Dlaed4 returning the root's representation lam = org + tau,
// where org is the origin pole and tau the (cancellation-free) offset from
// it, and the number of secular-function evaluations it ran. The iteration
// carries tau alone: every evaluation forms delta_j = (d[j]-org) - tau in the
// register that uses it (simd.SecularSums), and the pole neighbours' deltas
// are scalars. delta may be nil; when it is not, it receives the delta
// column once, at return, as delta[j] = (d[j]-org) - tau — so a later pass
// holding only (org, tau) forms the same bits in-lane, which is how the
// merge's LocalW, ComputeVect and UpdateZ tasks read the root. For k ≤ 2 the
// pair does not describe delta: k == 1 returns (d[0], rho·z[0]²), and
// k == 2 returns (0, 0) and leaves Dlaed5's vector components in delta when
// it is given.
func Dlaed4OrgTau(k, i int, d, z, delta []float64, rho float64) (lam, org, tau float64, evals int, err error) {
	const maxit = 75
	switch {
	case k <= 0:
		return 0, 0, 0, 0, fmt.Errorf("lapack: Dlaed4: k=%d", k)
	case i < 0 || i >= k:
		return 0, 0, 0, 0, fmt.Errorf("lapack: Dlaed4: index %d out of range [0,%d)", i, k)
	case k == 1:
		if delta != nil {
			delta[0] = 1
		}
		t := rho * z[0] * z[0]
		return d[0] + t, d[0], t, 0, nil
	case k == 2:
		var v [2]float64
		if delta == nil {
			delta = v[:]
		}
		lam, err = Dlaed5(i, d, z, delta, rho)
		return lam, 0, 0, 0, err
	}

	eps := Eps
	rhoinv := 1 / rho

	if i == k-1 {
		// The last eigenvalue: root in (d[k-1], d[k-1]+rho), origin d[k-1].
		n := k
		ii := n - 2 // index of the second-to-last pole (0-based)
		org = d[n-1]

		// Initial guess: evaluate at the midpoint d[n-1] + rho/2.
		midpt := rho / 2
		psi := simd.ShiftedSumRatios(d[:n-2], z[:n-2], org, midpt)
		c := rhoinv + psi
		w := c + z[ii]*z[ii]/((d[n-2]-org)-midpt) + z[n-1]*z[n-1]/((d[n-1]-org)-midpt)

		var dltlb, dltub float64
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

		ret := func(ferr error) (float64, float64, float64, int, error) {
			if delta != nil {
				simd.ShiftInto(delta[:n], d, org, tau)
			}
			return org + tau, org, tau, evals, ferr
		}

		// The two pole neighbours' deltas at the current tau.
		var dm2, dm1 float64
		evaluate := func() (w, dpsi, dphi, erretm float64) {
			evals++
			dm2, dm1 = (d[n-2]-org)-tau, (d[n-1]-org)-tau
			// ψ over the leading n-2 terms in one fused pass. The reference
			// adds the running prefix of ψ to erretm after every term, which
			// weights term j by (n-1)-j: w0=n-1, wstep=-1. The pole terms
			// j=n-2 and j=n-1 stay scalar.
			psi, dpsiv, werr := simd.SecularSums(z[:n-2], d[:n-2], org, tau, float64(n-1), -1)
			dpsi = dpsiv
			temp := z[n-2] / dm2
			psi += z[n-2] * temp
			dpsi += temp * temp
			erretm = math.Abs(werr + z[n-2]*temp)
			temp = z[n-1] / dm1
			phi := z[n-1] * temp
			dphi = temp * temp
			erretm = 8*(-phi-psi) + erretm - phi + rhoinv + math.Abs(tau)*(dpsi+dphi)
			w = rhoinv + phi + psi
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
			c := w - dm2*dpsi - dm1*dphi
			a := (dm2+dm1)*w - dm2*dm1*(dpsi+dphi)
			b := dm2 * dm1 * w
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

	psi0 := simd.ShiftedSumRatios(d[:i], z[:i], d[i], midpt)
	phi0 := simd.ShiftedSumRatios(d[i+2:k], z[i+2:k], d[i], midpt)
	c := rhoinv + psi0 + phi0
	w := c + z[i]*z[i]/((d[i]-d[i])-midpt) + z[ip1]*z[ip1]/((d[ip1]-d[i])-midpt)

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

	org, ii := d[i], i
	if !orgati {
		org, ii = d[ip1], ip1
	}

	ret := func(ferr error) (float64, float64, float64, int, error) {
		if delta != nil {
			simd.ShiftInto(delta[:k], d, org, tau)
		}
		return org + tau, org, tau, evals, ferr
	}

	// The two pole neighbours' deltas at the current tau; the origin pole's
	// is 0 - tau.
	var di, dip1 float64
	evaluate := func() (w, dw, dpsi, dphi, erretm float64) {
		evals++
		di, dip1 = (d[i]-org)-tau, (d[ip1]-org)-tau
		// ψ over [0,ii) and φ over (ii,k) in two fused passes. The reference
		// accumulates erretm as a running prefix after every term: the
		// forward ψ loop maps to weights ii-j (w0=ii, wstep=-1) and the
		// descending φ loop to weights j-ii over the ascending slice (w0=1,
		// wstep=+1). The pole terms j==i and j==i+1 stay scalar so the
		// iteration sees them at full precision.
		var psi, phi, werrPsi, werrPhi float64
		if orgati {
			psi, dpsi, werrPsi = simd.SecularSums(z[:i], d[:i], org, tau, float64(i), -1)
			phi, dphi, werrPhi = simd.SecularSums(z[i+2:k], d[i+2:k], org, tau, 2, 1)
			t := z[ip1] / dip1
			phi += z[ip1] * t
			dphi += t * t
			werrPhi += z[ip1] * t
		} else {
			psi, dpsi, werrPsi = simd.SecularSums(z[:i], d[:i], org, tau, float64(i+1), -1)
			t := z[i] / di
			psi += z[i] * t
			dpsi += t * t
			werrPsi += z[i] * t
			phi, dphi, werrPhi = simd.SecularSums(z[ip1+1:k], d[ip1+1:k], org, tau, 1, 1)
		}
		erretm = math.Abs(math.Abs(werrPsi) + werrPhi)
		w = rhoinv + phi + psi
		// Add back the ii-th (origin) term.
		dii := di
		if !orgati {
			dii = dip1
		}
		temp := z[ii] / dii
		dw = dpsi + dphi + temp*temp
		temp = z[ii] * temp
		w += temp
		erretm = 8*(phi-psi) + erretm + 2*rhoinv + 3*math.Abs(temp) + math.Abs(tau)*dw
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
			t := z[i] / di
			cc = w - dip1*dw - (d[i]-d[ip1])*t*t
		} else {
			t := z[ip1] / dip1
			cc = w - di*dw - (d[ip1]-d[i])*t*t
		}
		a := (di+dip1)*w - di*dip1*dw
		b := di * dip1 * w
		var eta float64
		switch {
		case cc == 0:
			if a == 0 {
				if orgati {
					a = z[i]*z[i] + dip1*dip1*(dpsi+dphi)
				} else {
					a = z[ip1]*z[ip1] + di*di*(dpsi+dphi)
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

// Dlaed4Bisect solves the same secular-equation problem as Dlaed4 by pure
// bisection: slower (linear convergence, O(k) per step) but guaranteed to
// converge, since the secular function is strictly increasing between
// consecutive poles and the root is always bracketed. It is the safeguard
// the solver falls back to when Dlaed4's rational iteration reports
// non-convergence, so a hard eigenvalue can degrade speed but never
// correctness. Semantics of lam and delta match Dlaed4.
func Dlaed4Bisect(k, i int, d, z, delta []float64, rho float64) (float64, error) {
	lam, _, _, _, err := Dlaed4BisectOrgTau(k, i, d, z, delta, rho)
	return lam, err
}

// Dlaed4BisectOrgTau is Dlaed4Bisect returning the lam = org + tau
// representation and the number of secular-function evaluations, with the
// same nil-able delta contract as Dlaed4OrgTau.
func Dlaed4BisectOrgTau(k, i int, d, z, delta []float64, rho float64) (lam, org, tau float64, evals int, err error) {
	switch {
	case k <= 0:
		return 0, 0, 0, 0, fmt.Errorf("lapack: Dlaed4Bisect: k=%d", k)
	case i < 0 || i >= k:
		return 0, 0, 0, 0, fmt.Errorf("lapack: Dlaed4Bisect: index %d out of range [0,%d)", i, k)
	case k <= 2:
		return Dlaed4OrgTau(k, i, d, z, delta, rho)
	}
	rhoinv := 1 / rho
	// w(tau) = 1/rho + Σ_j z_j² / ((d_j - org) - tau): strictly increasing
	// in tau wherever it is finite, with the differences accumulated
	// relative to the origin pole to avoid cancellation (as in Dlaed4).
	eval := func(org, tau float64) float64 {
		evals++
		return rhoinv + simd.ShiftedSumRatios(d[:k], z[:k], org, tau)
	}
	var lo, hi float64
	if i == k-1 {
		// Root in (d[k-1], d[k-1]+rho·‖z‖²]; ‖z‖=1 after deflation, but
		// widen the bracket if rounding leaves w(hi) non-positive.
		org = d[k-1]
		lo, hi = 0, rho
		for g := 0; g < 4 && eval(org, hi) <= 0; g++ {
			hi *= 2
		}
	} else {
		// Root in (d[i], d[i+1]): pick the origin on the side of the
		// midpoint that holds the root, so delta at the nearby pole stays
		// accurate (w(midpoint) ≥ 0 ⇒ the root lies left of the midpoint).
		del := d[i+1] - d[i]
		midpt := del / 2
		if eval(d[i], midpt) >= 0 {
			org, lo, hi = d[i], 0, midpt
		} else {
			org, lo, hi = d[i+1], -midpt, 0
		}
	}
	// Bisect until the bracket collapses to adjacent floats. w(lo)<0<w(hi)
	// throughout, and the midpoint stays strictly inside the pole interval,
	// so the final tau never lands on a pole (delta stays nonzero).
	tau = lo + (hi-lo)/2
	for iter := 0; iter < 200; iter++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if eval(org, mid) >= 0 {
			hi = mid
		} else {
			lo = mid
		}
		tau = mid
	}
	if delta != nil {
		simd.ShiftInto(delta[:k], d, org, tau)
	}
	return org + tau, org, tau, evals, nil
}

// Dlaed5 computes the i-th eigenvalue of a 2×2 rank-one modification
// D + rho*z*zᵀ in closed form (LAPACK DLAED5). delta receives the normalized
// eigenvector components, as in LAPACK.
func Dlaed5(i int, d, z, delta []float64, rho float64) (float64, error) {
	if i < 0 || i > 1 {
		return 0, fmt.Errorf("lapack: Dlaed5: index %d", i)
	}
	del := d[1] - d[0]
	var lam float64
	if i == 0 {
		w := 1 + 2*rho*(z[1]*z[1]-z[0]*z[0])/del
		if w > 0 {
			b := del + rho*(z[0]*z[0]+z[1]*z[1])
			c := rho * z[0] * z[0] * del
			// b > 0 always
			tau := 2 * c / (b + math.Sqrt(math.Abs(b*b-4*c)))
			lam = d[0] + tau
			delta[0] = -z[0] / tau
			delta[1] = z[1] / (del - tau)
		} else {
			b := -del + rho*(z[0]*z[0]+z[1]*z[1])
			c := rho * z[1] * z[1] * del
			var tau float64
			if b > 0 {
				tau = -2 * c / (b + math.Sqrt(b*b+4*c))
			} else {
				tau = (b - math.Sqrt(b*b+4*c)) / 2
			}
			lam = d[1] + tau
			delta[0] = -z[0] / (del + tau)
			delta[1] = -z[1] / tau
		}
	} else {
		b := -del + rho*(z[0]*z[0]+z[1]*z[1])
		c := rho * z[1] * z[1] * del
		var tau float64
		if b > 0 {
			tau = (b + math.Sqrt(b*b+4*c)) / 2
		} else {
			tau = 2 * c / (-b + math.Sqrt(b*b+4*c))
		}
		lam = d[1] + tau
		delta[0] = -z[0] / (del + tau)
		delta[1] = -z[1] / tau
	}
	temp := math.Sqrt(delta[0]*delta[0] + delta[1]*delta[1])
	delta[0] /= temp
	delta[1] /= temp
	return lam, nil
}
