// Package bench implements the reproduction harness: one entry point per
// table and figure of the paper's evaluation section (see DESIGN.md §4).
// Each function runs the experiment at laptop scale, prints the same rows or
// series the paper reports, and returns structured data for the tests.
//
// Performance shapes that require 16 cores come from the measured-replay
// schedule simulator (internal/sched): the real task graph with real
// measured task durations is list-scheduled on P virtual workers
// (substitution documented in DESIGN.md §2).
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"tridiag/internal/core"
	"tridiag/internal/lapack"
	"tridiag/internal/mrrr"
	"tridiag/internal/quark"
	"tridiag/internal/sched"
	"tridiag/internal/testmat"
)

// Config controls experiment scale. Zero values select paper-shaped
// defaults scaled to laptop budgets.
type Config struct {
	Sizes            []int
	Types            []int
	Workers          []int
	Seed             int64
	Quick            bool
	BandwidthStreams float64 // memory-bound concurrency cap for simulation
	Out              io.Writer
}

func (c *Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c *Config) seed() int64 {
	if c.Seed == 0 {
		return 20150525 // IPDPS 2015 :-)
	}
	return c.Seed
}

func (c *Config) sizes(def []int) []int {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	if c.Quick {
		q := def[:0:0]
		for _, s := range def {
			q = append(q, s/2)
		}
		return q[:min(2, len(q))]
	}
	return def
}

func (c *Config) types(def []int) []int {
	if len(c.Types) > 0 {
		return c.Types
	}
	return def
}

func (c *Config) bandwidth() float64 {
	if c.BandwidthStreams == 0 {
		return 4 // single-socket saturation observed in the paper (Fig. 5)
	}
	return c.BandwidthStreams
}

// matCache avoids regenerating expensive inverse-eigenvalue matrices.
var matCache sync.Map // key string -> testmat.Matrix

func matrix(typ, n int, seed int64) (testmat.Matrix, error) {
	key := fmt.Sprintf("%d/%d/%d", typ, n, seed)
	if v, ok := matCache.Load(key); ok {
		return v.(testmat.Matrix), nil
	}
	m, err := testmat.Type(typ, n, rand.New(rand.NewSource(seed+int64(typ)*1000+int64(n))))
	if err != nil {
		return m, err
	}
	matCache.Store(key, m)
	return m, nil
}

// dcOptions are the solver settings shared across experiments.
func dcOptions(n int) (panel, minpart int) {
	minpart = max(32, min(128, n/8))
	panel = max(16, min(128, n/8))
	return panel, minpart
}

// mappedMatrix returns an n×n eigenvector workspace whose pages are
// already written. The first write to a fresh allocation pays the operating
// system's page zeroing, which a capture would charge to whichever task
// writes that page first and a replay would then spread as if it were that
// task's work; a long-lived caller reuses mapped memory. The solver ignores
// the contents (DESIGN.md §12), so NaN is as good as any value.
func mappedMatrix(n int) []float64 {
	q := make([]float64, n*n)
	for i := range q {
		q[i] = math.NaN()
	}
	return q
}

// capture solves the matrix with the task-flow solver in the given mode on
// one worker, with panel width panel and leaf cutoff minpart, capturing the
// task graph. It solves captureRuns times and keeps each task's shortest
// duration and the shortest wall time: the DAG is the same on every run,
// and a task the host preempted in one run would otherwise carry the lost
// time into the replay, often as its critical path. The stats are the
// first run's; operation counts and deflation do not change between runs.
func capture(m testmat.Matrix, mode core.Mode, panel, minpart int) (*quark.Graph, *core.Stats, time.Duration, error) {
	const captureRuns = 3
	n := m.N()
	var g *quark.Graph
	var st *core.Stats
	var wall time.Duration
	for r := 0; r < captureRuns; r++ {
		d := append([]float64(nil), m.D...)
		e := append([]float64(nil), m.E...)
		q := mappedMatrix(n)
		t0 := time.Now()
		res, err := core.SolveDC(n, d, e, q, n, &core.Options{
			Workers: 1, PanelSize: panel, MinPartition: minpart,
			CaptureGraph: true, Mode: mode,
		})
		el := time.Since(t0)
		if err != nil {
			return nil, nil, 0, err
		}
		if g == nil {
			g, st, wall = res.Graph, res.Stats, el
			continue
		}
		wall = min(wall, el)
		for i := range g.Tasks {
			if dt := res.Graph.Tasks[i].Duration(); dt < g.Tasks[i].Duration() {
				g.Tasks[i].End = g.Tasks[i].Start + dt
			}
		}
	}
	return g, st, wall, nil
}

// timeDC measures the wall time of one task-flow solve (no capture).
func timeDC(m testmat.Matrix, workers int) (time.Duration, *core.Stats, error) {
	n := m.N()
	d := append([]float64(nil), m.D...)
	e := append([]float64(nil), m.E...)
	q := make([]float64, n*n)
	panel, minpart := dcOptions(n)
	t0 := time.Now()
	res, err := core.SolveDC(n, d, e, q, n, &core.Options{
		Workers: workers, PanelSize: panel, MinPartition: minpart,
	})
	return time.Since(t0), res.Stats, err
}

// timeMRRR measures the wall time of one MRRR solve.
func timeMRRR(m testmat.Matrix, workers int) (time.Duration, error) {
	n := m.N()
	w := make([]float64, n)
	z := make([]float64, n*n)
	t0 := time.Now()
	err := mrrr.Solve(n, m.D, m.E, w, z, n, &mrrr.Options{Workers: workers})
	return time.Since(t0), err
}

// solveAccuracy solves with the given method and returns the paper's two
// accuracy metrics (orthogonality, residual).
func solveAccuracy(m testmat.Matrix, useMRRR bool) (orth, resid float64, err error) {
	n := m.N()
	d := append([]float64(nil), m.D...)
	e := append([]float64(nil), m.E...)
	z := make([]float64, n*n)
	if useMRRR {
		w := make([]float64, n)
		if err := mrrr.Solve(n, m.D, m.E, w, z, n, nil); err != nil {
			return 0, 0, err
		}
		copy(d, w)
	} else {
		panel, minpart := dcOptions(n)
		if _, err := core.SolveDC(n, d, e, z, n, &core.Options{PanelSize: panel, MinPartition: minpart}); err != nil {
			return 0, 0, err
		}
	}
	return accuracy(m, d, z)
}

func accuracy(m testmat.Matrix, lam, z []float64) (orth, resid float64, err error) {
	n := m.N()
	nrm := lapack.Dlanst('M', n, m.D, m.E)
	if nrm == 0 {
		nrm = 1
	}
	worstR := 0.0
	for j := 0; j < n; j++ {
		v := z[j*n : j*n+n]
		var s2 float64
		for i := 0; i < n; i++ {
			s := m.D[i] * v[i]
			if i > 0 {
				s += m.E[i-1] * v[i-1]
			}
			if i < n-1 {
				s += m.E[i] * v[i+1]
			}
			r := s - lam[j]*v[i]
			s2 += r * r
		}
		if s2 > worstR {
			worstR = s2
		}
	}
	resid = math.Sqrt(worstR) / (nrm * float64(n))
	worstO := 0.0
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var s float64
			zi, zj := z[i*n:i*n+n], z[j*n:j*n+n]
			for k := 0; k < n; k++ {
				s += zi[k] * zj[k]
			}
			if i == j {
				s -= 1
			}
			if s < 0 {
				s = -s
			}
			if s > worstO {
				worstO = s
			}
		}
	}
	orth = worstO / float64(n)
	return orth, resid, nil
}

// alignDurations overwrites dst's task durations with src's, matching tasks
// by (class, label) identity. Tasks without a counterpart (e.g. barrier
// tasks) get zero duration. This lets two dependency structures of the same
// computation be simulated over identical measured costs.
func alignDurations(dst, src *quark.Graph) {
	m := make(map[string]time.Duration, len(src.Tasks))
	for _, t := range src.Tasks {
		m[t.Class+"|"+t.Label] = t.Duration()
	}
	for i := range dst.Tasks {
		ti := &dst.Tasks[i]
		if d, ok := m[ti.Class+"|"+ti.Label]; ok {
			ti.Start = 0
			ti.End = d
		}
		// tasks with no counterpart (barriers, redistribution) keep their
		// own measured duration
	}
}

// opCosts replaces g's measured task durations with the tasks' operation
// counts (core.Stats.TaskOps, one op per nanosecond of virtual time): the
// paper's Table I cost model instead of the host's clock, so a replay over
// them gives the same schedule on every host and run. Tasks that did no
// counted work (empty panels, barriers) cost nothing.
func opCosts(g *quark.Graph, st *core.Stats) {
	for i := range g.Tasks {
		ti := &g.Tasks[i]
		ti.Start, ti.End = 0, time.Duration(st.TaskOps[ti.Label])
	}
}

// simulate is a small wrapper with the default two-socket bandwidth model
// (bw streams per socket, 8 workers per socket, as on the paper's machine).
func simulate(g *quark.Graph, workers int, bw float64) (*sched.Result, error) {
	return sched.Simulate(g, sched.Config{Workers: workers, StreamsPerSocket: bw, WorkersPerSocket: 8})
}
