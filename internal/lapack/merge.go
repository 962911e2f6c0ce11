package lapack

import (
	"sync/atomic"

	"tridiag/internal/pool"
)

// Merge is one merge of the divide and conquer, the paper's Algorithm 1,
// with one method per step. It merges two solved children, the left one N1
// of its N rows wide, through their rank-one coupling, in one of two lanes:
// the eigenvector lane (NewVectorMerge) rebuilds the merge's block of q, and
// the carrier lane (NewCarrierMerge) only the block's first and last rows,
// the values-only lane's carrier. The merge owns its state: the Deflation,
// the compressed eigenvector workspace, the secular roots, Gu's products,
// the gathered carrier rows and its checks.
//
// The sequential driver runs the steps in order over one panel, [0, K)
// (Run). The task flow submits each step as the paper's task whose class
// its doc names, the panel steps once per column range. Each step returns
// its Table I operation count, and the steps whose output has an invariant
// check it in a checked merge: Secular the interlacing of its roots,
// Update each packed product against its operand's checksum rows, and
// Order the trace of the merged spectrum. A failed check is the step's
// error.
type Merge struct {
	N, N1 int
	// NB is the width of the secular steps' panels: Deflate sets it to K,
	// one panel, and a caller that splits them into narrower panels sets it
	// before the first one runs.
	NB int

	cfg   MergeConfig
	d     []float64 // the merge's eigenvalues, d[0:N]
	indxq []int
	w     Window    // the eigenvector lane's block of q
	fl    []float64 // the carrier lane's 2×N carrier window
	// carrier marks the carrier lane; emit, that its parent carrier has a
	// consumer (false for the values lane's root merge, which rotates no
	// carrier rows and keeps no roots).
	carrier, emit bool

	df *Deflation
	ws *MergeWorkspace
	// sec is the pooled secular state (mergeWords): each root as
	// λ = porg + ptau, FinishW's grouped ẑ and poles, the carrier lane's
	// gathered outer rows, and one Gu product of K words per panel.
	sec, porg, ptau, what, poles, gtop, gbot, wloc []float64

	traceWant, traceTol float64
	traceDefect         float64
	// The record's counters; concurrent panels add to them.
	evals, bisections, invariants, invariantFails, checksums, checksumFails atomic.Int64
}

// MergeConfig is what an orchestration fixes when it builds a merge.
type MergeConfig struct {
	// Level is the merge's tree level, for its record.
	Level int
	// Panels is the most panels the secular steps run in (at least one).
	Panels int
	// Checked turns on the steps' checks, and PackV (Pack) so that every
	// packed product is verified. Plain Dstedc and Dlaed1 run unchecked.
	Checked bool
	// Corrupt, when non-nil, is handed each step's output at its fault
	// point, under the step's task class: where a fault-injection probe
	// flips a bit. Secular hands its roots and Order the merged eigenvalues
	// right before their checks, Update its first column before its
	// checksums.
	Corrupt func(class string, data []float64)
	// Gemm is UpdateVect's matrix product (nil: blas.Dgemm).
	Gemm GemmFunc
}

// MergeRecord is one merge's record: its level, its width N, its secular
// size K and secular panel width NB, the secular-function evaluations of the
// roots whose panel passed its interlacing check, the bisection rescues,
// the checks it ran and how many failed, and the trace defect it measured.
type MergeRecord struct {
	Level, N, K, NB            int
	Evals, Bisections          int64
	Invariants, InvariantFails int64
	Checksums, ChecksumFails   int64
	TraceDefect                float64
}

// mergeWords returns the sizes, in words, of a merge's two pooled buffers
// for n rows and k secular roots in the given number of secular panels: the
// Deflate step's (z, and in the carrier lane the 2-row copy of the outer
// carrier rows, per row), and the secular state's (porg, ptau, ẑ and the
// poles, in the carrier lane also the two gathered outer rows, per root,
// and one Gu product per panel).
func mergeWords(carrier bool, n, k, panels int) (deflate, secular int) {
	if carrier {
		return 3 * n, (6 + panels) * k
	}
	return n, (4 + panels) * k
}

// NewVectorMerge returns the eigenvector lane's merge of window w: its left
// child's n1 columns and the rest are solved, d holds their eigenvalues and
// indxq sorts each child's ascending (the second child's indices local to
// it). The merge leaves d[0:K] and w's first K columns holding the secular
// eigenpairs, each deflated pair where Deflation.Slot puts it, w's spans
// describing the new columns, and indxq sorting d ascending.
func NewVectorMerge(w Window, n1 int, d []float64, indxq []int, cfg MergeConfig) *Merge {
	return &Merge{N: w.N, N1: n1, cfg: cfg, d: d, indxq: indxq, w: w}
}

// NewCarrierMerge returns the carrier lane's merge of d's two solved
// children, the left one n1 wide, over their carrier window fl (leading
// dimension 2): d, indxq and the carrier end as in a vector merge, with the
// carrier holding the first and last rows of the merged block's
// eigenvectors. Without emit the carrier is only read, for z.
func NewCarrierMerge(fl []float64, n1 int, d []float64, indxq []int, emit bool, cfg MergeConfig) *Merge {
	return &Merge{N: len(d), N1: n1, cfg: cfg, d: d, indxq: indxq, fl: fl, carrier: true, emit: emit}
}

// K is the merge's secular size, known once Deflate has run.
func (m *Merge) K() int { return m.df.K }

// Deflated reports whether Deflate has run.
func (m *Merge) Deflated() bool { return m.df != nil }

// Panel returns the columns [j0, j1) of secular panel p: NB of them, cut at
// K (empty past it).
func (m *Merge) Panel(p int) (j0, j1 int) {
	j0 = p * m.NB
	return j0, min(j0+m.NB, m.df.K)
}

func (m *Merge) hook(class string, data []float64) {
	if m.cfg.Corrupt != nil {
		m.cfg.Corrupt(class, data)
	}
}

// Deflate is the ComputeDeflation step: it forms z from the children's
// inner rows, runs the deflation scan with its rotations (of w's columns,
// or of a copy of the carrier's outer rows) and takes the workspace of the
// steps after it. The carrier lane also places its deflated eigenvalues and
// carrier columns here; the eigenvector lane moves its deflated vectors in
// CopyBack. A checked merge fixes its trace budget from d at entry. It
// counts N.
func (m *Merge) Deflate(rho float64) (int64, error) {
	n := m.N
	var sum, abs, dmax float64
	if m.cfg.Checked {
		sum, abs, dmax = TraceSum(m.d[:n])
	}
	words, _ := mergeWords(m.carrier, n, 0, 0)
	buf := pool.Get(words)
	defer pool.Put(buf)
	z := buf[:n]
	var g2 []float64
	var err error
	if m.carrier {
		if m.emit {
			g2 = buf[n : 3*n]
		}
		m.df, err = DeflateCarrier(n, m.N1, m.d, m.indxq, rho, m.fl, z, g2)
	} else {
		m.w.FormZ(m.N1, z)
		m.df, err = Dlaed2Deflate(m.w, m.N1, m.d, m.indxq, rho, z)
	}
	if err != nil {
		return 0, err
	}
	k := m.df.K
	m.NB = k
	if k > 0 && (!m.carrier || m.emit) {
		_, words := mergeWords(m.carrier, n, k, max(m.cfg.Panels, 1))
		m.sec = pool.Get(words)
		m.porg, m.ptau, m.what, m.poles = m.sec[:k], m.sec[k:2*k], m.sec[2*k:3*k], m.sec[3*k:4*k]
		m.wloc = m.sec[4*k:]
		if m.carrier {
			m.gtop, m.gbot, m.wloc = m.sec[4*k:5*k], m.sec[5*k:6*k], m.sec[6*k:]
		} else {
			m.ws = NewMergeWorkspace(m.df)
		}
	}
	if g2 != nil {
		m.df.GatherCarrierRows(g2, m.gtop, m.gbot)
	}
	if m.carrier {
		m.df.CopyBackValuesVO(m.d, g2, m.fl)
	}
	if m.cfg.Checked {
		m.traceWant, m.traceTol = TraceBudget(sum, abs, dmax, m.df.Rho, n)
	}
	// A corrupted pole propagates into every secular root of the merge and
	// breaks the trace invariant.
	m.hook("ComputeDeflation", m.df.Dlamda)
	return int64(n), nil
}

// Permute is the PermuteV step over grouped columns [g0, g1): it copies
// their non-deflated half-columns into the compressed workspace; deflated
// columns stay in q. A merge without that workspace (the carrier lane,
// K = 0) has nothing to copy. It counts the words it copied.
func (m *Merge) Permute(g0, g1 int) int64 {
	if m.ws == nil {
		return 0
	}
	words := m.df.PermutePanel(m.w, m.ws, g0, g1)
	if words > 0 {
		// Only the first column: other panels write their own concurrently.
		m.hook("PermuteV", m.df.PermutedColumn(m.ws, g0))
	}
	return int64(words)
}

// Secular is the LAED4 step over secular columns [j0, j1): it solves the
// secular equation for those roots (SecularPanel), each λ_j into d[j] and,
// for the later steps, as its (org, tau) pair. The carrier lane also
// multiplies the roots' factors into the panel's Gu product: it has no
// ComputeLocalW step. A checked merge then checks the roots against their
// interlacing brackets, and files the panel's evaluations only when they
// pass. It counts (j1−j0)·K. A retry runs again over the same buffers.
func (m *Merge) Secular(j0, j1 int) (int64, error) {
	if j0 >= j1 {
		return 0, nil
	}
	evals, nfb, err := m.df.SecularPanel(m.d, m.porg, m.ptau, j0, j1)
	if err != nil {
		return 0, err
	}
	m.bisections.Add(int64(nfb))
	if m.carrier && m.emit {
		m.localW(j0, j1)
	}
	ops := int64(j1-j0) * int64(m.df.K)
	m.hook("LAED4", m.d[j0:j1])
	if m.cfg.Checked {
		m.invariants.Add(1)
		if err := m.df.CheckInterlacing(m.d, j0, j1); err != nil {
			m.invariantFails.Add(1)
			return ops, err
		}
	}
	m.evals.Add(int64(evals))
	return ops, nil
}

// LocalW is the ComputeLocalW step over secular columns [j0, j1): the
// roots' factors of Gu's stabilization product, multiplied into the
// product of the panel starting at j0. It counts (j1−j0)·K.
func (m *Merge) LocalW(j0, j1 int) int64 {
	if j0 >= j1 {
		return 0
	}
	m.hook("ComputeLocalW", m.localW(j0, j1))
	return int64(j1-j0) * int64(m.df.K)
}

// localW sets the Gu product of the panel starting at j0 to 1 and
// multiplies in the factors of roots [j0, j1).
func (m *Merge) localW(j0, j1 int) []float64 {
	k := m.df.K
	p := j0 / m.NB
	wl := m.wloc[p*k : p*k+k]
	for i := range wl {
		wl[i] = 1
	}
	m.df.LocalWPanel(m.porg, m.ptau, wl, j0, j1)
	return wl
}

// ReduceW is the ReduceW step: the panels' Gu products combined into the
// stabilized ẑ, which FinishW leaves with the poles in grouped order. It
// counts K.
func (m *Merge) ReduceW() int64 {
	k := m.df.K
	if k > 0 {
		m.df.FinishW(m.what, m.poles, m.wloc[:(k+m.NB-1)/m.NB*k])
	}
	m.hook("ReduceW", m.what)
	return int64(k)
}

// CopyBack is the CopyBackDeflated step over columns [c0, c1): each
// deflated vector sitting there moves, with its eigenvalue, to its Slot
// column, emptying the columns for Update. It counts the words it moved.
func (m *Merge) CopyBack(c0, c1 int) int64 {
	words := m.df.CopyBackPanel(m.w, m.d, c0, c1)
	if words > 0 && m.cfg.Corrupt != nil {
		// The first eigenvalue this panel moved: the trace check catches
		// any drift in the merged spectrum.
		for c := c0; ; c++ {
			if j := m.df.Move[c]; j >= 0 {
				s := m.df.Slot[j]
				m.cfg.Corrupt("CopyBackDeflated", m.d[s:s+1])
				break
			}
		}
	}
	return int64(words)
}

// Vectors is the ComputeVect step over secular columns [j0, j1): their
// columns of S, the secular eigenvectors, from ẑ and the roots. It counts
// (j1−j0)·K.
func (m *Merge) Vectors(j0, j1 int) int64 {
	if j0 >= j1 {
		return 0
	}
	k := m.df.K
	m.df.VectorsPanel(m.ws.S, m.what, m.poles, m.porg, m.ptau, j0, j1)
	m.hook("ComputeVect", m.ws.S[j0*k:j1*k])
	return int64(j1-j0) * int64(k)
}

// Pack is the PackV step of a checked merge: the compressed GEMM operands
// packed once, with checksum rows, for every Update panel to share (PackV
// judges the shape at NB columns). It returns the packed bytes, which are
// not a Table I count; an unchecked merge packs nothing.
func (m *Merge) Pack() int64 {
	if !m.cfg.Checked || m.ws == nil {
		return 0
	}
	bytes := m.df.PackV(m.ws, min(m.NB, m.df.K))
	// The packed operand itself, after its checksum rows were computed from
	// the clean data: every product through it must then fail its check.
	if m.ws.PackTop != nil {
		m.hook("PackV", m.ws.PackTop.PackedData())
	} else if m.ws.PackBot != nil {
		m.hook("PackV", m.ws.PackBot.PackedData())
	}
	return int64(bytes)
}

// Update is the UpdateVect step over columns [j0, j1): V = Q2·S as two
// compressed GEMMs, through the packed operands where Pack built them; a
// checked merge then verifies each packed product against its operand's
// checksum rows. It counts 2·(j1−j0)·N·K, and returns how many of the
// panel's GEMMs ran packed and unpacked.
func (m *Merge) Update(j0, j1 int) (ops int64, packed, unpacked int, err error) {
	if j0 >= j1 {
		return 0, 0, 0, nil
	}
	q, ldq := m.w.Q, m.w.LDQ
	packed, unpacked = m.df.UpdatePanel(m.w, m.ws, j0, j1, m.cfg.Gemm)
	ops = 2 * int64(j1-j0) * int64(m.N) * int64(m.df.K)
	m.hook("UpdateVect", q[j0*ldq:j0*ldq+m.N])
	if m.cfg.Checked {
		checked, err := m.df.VerifyUpdatePanel(q, ldq, m.ws, j0, j1)
		m.checksums.Add(int64(checked))
		if err != nil {
			m.checksumFails.Add(1)
			return ops, packed, unpacked, err
		}
	}
	return ops, packed, unpacked, nil
}

// UpdateZ is the carrier lane's UpdateZ step over secular columns [j0, j1):
// their entries of the parent carrier, the first and last rows of their
// eigenvectors (UpdateZPanelVO). It counts (j1−j0)·K.
func (m *Merge) UpdateZ(j0, j1 int) int64 {
	if j0 >= j1 {
		return 0
	}
	m.df.UpdateZPanelVO(m.what, m.poles, m.porg, m.ptau, m.gtop, m.gbot, m.fl, j0, j1)
	// A corrupted carrier makes the parent merge's z, and so the final
	// spectrum, inconsistent with the matrix: the solve's audit flags it.
	m.hook("UpdateZ", m.fl[2*j0:2*j1])
	return int64(j1-j0) * int64(m.df.K)
}

// Order is the Dlamrg step, once every eigenvalue of the merge is in
// place: a checked merge checks the merged spectrum d[0:N] against the
// trace budget Deflate fixed (CheckTrace), then indxq is built to sort it
// (MergeOrder). It counts N.
func (m *Merge) Order() (int64, error) {
	m.hook("Dlamrg", m.d[:m.N])
	if m.cfg.Checked {
		m.invariants.Add(1)
		defect, err := CheckTrace(m.d, m.N, m.traceWant, m.traceTol)
		m.traceDefect = defect
		if err != nil {
			m.invariantFails.Add(1)
			return 0, err
		}
	}
	m.df.MergeOrder(m.d, m.indxq)
	return int64(m.N), nil
}

// Run runs the merge's steps in order over one panel, [0, K), as the
// sequential driver does, then releases its buffers. It returns the sum of
// the steps' Table I counts and the first step's error.
func (m *Merge) Run(rho float64) (int64, error) {
	defer m.Release()
	ops, err := m.Deflate(rho)
	if err != nil {
		return ops, err
	}
	k := m.df.K
	ops += m.Permute(0, k)
	n, err := m.Secular(0, k)
	if ops += n; err != nil {
		return ops, err
	}
	if m.carrier {
		ops += m.ReduceW() + m.UpdateZ(0, k)
	} else {
		ops += m.LocalW(0, k) + m.ReduceW() + m.CopyBack(0, k) + m.Vectors(0, k)
		m.Pack()
		n, _, _, err = m.Update(0, k)
		if ops += n; err != nil {
			return ops, err
		}
	}
	n, err = m.Order()
	return ops + n, err
}

// Release returns the merge's pooled buffers; a second call does nothing.
// The task flow calls it when the merge's last workspace consumer is done,
// and again once its runtime has stopped, for a failed or cancelled merge.
func (m *Merge) Release() {
	if m.ws != nil {
		m.ws.Release()
		m.ws = nil
	}
	pool.Put(m.sec)
	m.sec, m.porg, m.ptau, m.what, m.poles, m.gtop, m.gbot, m.wloc = nil, nil, nil, nil, nil, nil, nil, nil
}

// Record returns the merge's record; in the task flow, once its tasks have
// stopped.
func (m *Merge) Record() MergeRecord {
	r := MergeRecord{Level: m.cfg.Level, N: m.N, NB: m.NB,
		Evals: m.evals.Load(), Bisections: m.bisections.Load(),
		Invariants: m.invariants.Load(), InvariantFails: m.invariantFails.Load(),
		Checksums: m.checksums.Load(), ChecksumFails: m.checksumFails.Load(),
		TraceDefect: m.traceDefect}
	if m.df != nil {
		r.K = m.df.K
	}
	return r
}
