package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"tridiag/eigen"
	"tridiag/eigen/cluster"
	"tridiag/internal/blas"
	"tridiag/internal/core"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
	"tridiag/internal/quark"
	"tridiag/internal/sched"
)

// span is one timed call at a layer boundary, recorded by the benchmark's
// own code around the call into the layer. Spans of one request share Req.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per request.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) add(req int, name, parent, class string, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{req, name, parent, class, int64(start.Sub(tr.t0)), int64(end.Sub(tr.t0))})
	tr.mu.Unlock()
}

// write stores the header and then the spans, one JSON object per line.
func (tr *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianTime calls f once to warm up, then reps times, running setup
// untimed before each call, and returns the median duration of f.
func medianTime(reps int, setup func(), f func() error) (time.Duration, error) {
	times := make([]float64, 0, reps)
	for i := -1; i < reps; i++ {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if i >= 0 {
			times = append(times, float64(time.Since(t0)))
		}
	}
	return time.Duration(median(times)), nil
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// secularProblem builds a well-separated secular system of size k with the
// post-deflation invariants Dlaed4 requires: ascending poles d, a unit-norm
// z with no small components, and a positive rho.
func secularProblem(rng *rand.Rand, k int) (d, z []float64, rho float64) {
	d, z = make([]float64, k), make([]float64, k)
	var acc, nrm float64
	for i := 0; i < k; i++ {
		acc += 0.1 + rng.Float64()
		d[i] = acc
		z[i] = 0.1 + rng.Float64()
		nrm += z[i] * z[i]
	}
	nrm = math.Sqrt(nrm)
	for i := range z {
		z[i] /= nrm
	}
	return d, z, 0.5 + rng.Float64()
}

// microMetrics measures the kernel layers on fixed shapes: the in-cache GEMM
// bound, UpdateVect's packed GEMM at lib-lowdefl's root merge, LAED4 per
// secular root, one STEDC leaf of the workload's own matrix family, and the
// spin-up of a task runtime.
func microMetrics(w workload, seed int64, m metrics) error {
	rng := requestRNG(seed, streamMicro, 0)

	const g = 256
	a, b, c := randVec(rng, g*g), randVec(rng, g*g), make([]float64, g*g)
	t, err := medianTime(15, nil, func() error {
		blas.Dgemm(false, false, g, g, g, 1, a, g, b, g, 0, c, g)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("blas.gemm_gflops_256", 2*g*g*g/t.Seconds()/1e9, "GFLOP/s")

	// The root merge of n = lowDeflN with nothing deflated: one packed half
	// of Q (n/2 × n/2) times the n/2 × n block of secular eigenvectors, in
	// UpdateVect-sized panels.
	const um, un, nb = lowDeflN / 2, lowDeflN, 128
	qa, s, out := randVec(rng, um*um), randVec(rng, um*un), make([]float64, um*un)
	t, err = medianTime(5, nil, func() error {
		pa := blas.PackA(false, um, um, qa, um)
		for j := 0; j < un; j += nb {
			blas.PackedGemm(pa, min(nb, un-j), 1, s[j*um:], um, 0, out[j*um:], um)
		}
		pa.Release()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("blas.updatevect_gflops", 2*um*um*un/t.Seconds()/1e9, "GFLOP/s")

	const k = 1000
	d, z, rho := secularProblem(rng, k)
	delta := make([]float64, k)
	t, err = medianTime(5, nil, func() error {
		for i := 0; i < k; i++ {
			if _, err := lapack.Dlaed4(k, i, d, z, delta, rho); err != nil {
				return fmt.Errorf("Dlaed4 root %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("lapack.laed4_us_per_root", float64(t)/1e3/k, "us")

	const leafN = 48
	leaf := w.request(seed, streamMicro, 0).t
	ld, le, lq := make([]float64, leafN), make([]float64, leafN-1), make([]float64, leafN*leafN)
	t, err = medianTime(50, func() {
		copy(ld, leaf.D[:leafN])
		copy(le, leaf.E[:leafN-1])
		clear(lq)
	}, func() error {
		_, err := lapack.DsteqrRobust(leafN, ld, le, lq, leafN)
		return err
	})
	if err != nil {
		return err
	}
	m.set("lapack.steqr_leaf_us", float64(t)/1e3, "us")

	t, err = medianTime(200, nil, func() error {
		quark.New(libWorkers).Shutdown()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("quark.spinup_us", float64(t)/1e3, "us")
	return nil
}

// chainLayers are the stack's public entry points, innermost first. Each is
// timed around its call from outside; a layer's self time is its median
// minus the median of the layer inside it.
var chainLayers = []string{"core", "eigen", "server", "worker_http", "coord"}

// coreClasses are the task classes whose time per request the traced run
// reports.
var coreClasses = []string{
	"UpdateVect", "PackV", "LAED4", "ComputeLocalW", "ComputeVect", "UpdateZ",
	"STEDC", "PermuteV", "CopyBackDeflated", "SortEigenvectors", "ComputeDeflation",
}

// chainEnv is an in-process copy of the deployed stack: an eigen.Server
// configured as eigserve's defaults configure it, behind the real worker
// handler, and a default coordinator in front, both on loopback listeners.
type chainEnv struct {
	srv    *eigen.Server
	wts    *httptest.Server
	coord  *cluster.Coordinator
	cts    *httptest.Server
	client *http.Client
}

func newChainEnv() (*chainEnv, error) {
	srv := eigen.NewServer(eigen.ServerConfig{BatchWindow: 2 * time.Millisecond})
	wts := httptest.NewServer(cluster.NewWorkerHandler(srv, cluster.HTTPConfig{}))
	coord, err := cluster.NewCoordinator(cluster.Config{Workers: []string{wts.URL}})
	if err != nil {
		wts.Close()
		srv.Shutdown(context.Background())
		return nil, err
	}
	cts := httptest.NewServer(cluster.NewCoordinatorHandler(coord, cluster.HTTPConfig{}))
	return &chainEnv{srv: srv, wts: wts, coord: coord, cts: cts, client: &http.Client{Timeout: 60 * time.Second}}, nil
}

func (e *chainEnv) close() {
	e.client.CloseIdleConnections()
	e.cts.Close()
	e.coord.Shutdown(context.Background())
	e.wts.Close()
	e.srv.Shutdown(context.Background())
}

// chainResult collects the paired layer timings of a traced run.
type chainResult struct {
	layer     map[string]map[string][]float64 // request class → layer → ms
	taskMS    map[string]float64              // task class → summed ms
	nReq      map[string]int                  // request class → core calls
	taskSum   []float64                       // full class: summed task ms per core call
	busy      []float64                       // full class: task sum / (wall · workers)
	defl      []float64
	schedEff  []float64
	tasks     []float64
	respBytes []float64 // full class: worker response bytes
	server    eigen.ServerStats
	coord     cluster.Stats
	pool      [2]pool.CounterSnapshot // before and after the calls, while the stack is up
}

func (c *chainResult) samples(class, layer string) []float64 { return c.layer[class][layer] }

// runChain calls every layer's entry point on the same requests, paired and
// interleaved: each request visits all layers, in an order rotated per
// request, so drift on the host spreads evenly over the layers. Every
// layer's output is verified after its clock stops.
func runChain(w workload, seed int64, dur time.Duration, tr *tracer, tl *tally) (*chainResult, error) {
	env, err := newChainEnv()
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := &chainResult{
		layer:  map[string]map[string][]float64{"full": {}, "values": {}},
		taskMS: map[string]float64{},
		nReq:   map[string]int{},
	}
	ctx := context.Background()
	enough := func() bool {
		for _, cls := range res.layer {
			for _, l := range chainLayers {
				if len(cls[l]) < 3 {
					return false
				}
			}
		}
		return true
	}
	res.pool[0] = pool.Counters()
	start := time.Now()
	for idx := 0; time.Since(start) < dur || !enough(); idx++ {
		if time.Since(start) > 3*dur {
			return nil, fmt.Errorf("traced layer calls did not cover both request classes")
		}
		r := w.request(seed, streamChain, idx)
		n, cls := r.t.N(), r.class()
		wantVec := !r.values
		// The lib workloads' requests cross the wire as the API's default,
		// spectrum only; svc-mix's small class asks for its vectors.
		wireVec := wantVec && w.svc
		body := wireBody(r, wireVec)
		vrng := requestRNG(seed, streamVerify, 1<<20+idx)
		roundStart := time.Now()
		for k := range chainLayers {
			layer := chainLayers[(idx+k)%len(chainLayers)]
			var el time.Duration
			var check func() error
			var err error
			switch layer {
			case "core":
				d := append([]float64(nil), r.t.D...)
				e := append([]float64(nil), r.t.E...)
				var q []float64
				if wantVec {
					q = make([]float64, n*n)
				}
				var cr *core.Result
				el, _, err = timedCall(func() (err error) {
					cr, err = core.SolveDCContext(ctx, n, d, e, q, n, &core.Options{Workers: libWorkers, ValuesOnly: r.values})
					return err
				})
				check = func() error {
					res.addCore(r, cr, el)
					return checkResult(r.t, d, q, wantVec, vrng)
				}
			case "eigen":
				var er *eigen.Result
				el, _, err = timedCall(func() (err error) {
					er, err = eigen.SolveContext(ctx, r.t, &eigen.Options{Workers: libWorkers, ValuesOnly: r.values})
					return err
				})
				check = func() error { return checkResult(r.t, er.Values, er.Vectors, wantVec, vrng) }
			case "server":
				// Workers stays 0, as eigserve passes it: a pinned worker
				// count would make small jobs ineligible for coalescing.
				var sr *eigen.ServeResult
				el, _, err = timedCall(func() (err error) {
					sr, err = env.srv.Solve(ctx, r.t, &eigen.Options{ValuesOnly: r.values})
					return err
				})
				check = func() error { return checkResult(r.t, sr.Values, sr.Vectors, wantVec, vrng) }
			case "worker_http", "coord":
				url := env.wts.URL
				if layer == "coord" {
					url = env.cts.URL
				}
				var raw []byte
				el, _, err = timedCall(func() (err error) {
					raw, err = postSolve(env.client, url, body)
					return err
				})
				check = func() error {
					if layer == "worker_http" && wantVec {
						res.respBytes = append(res.respBytes, float64(len(raw)))
					}
					return checkResponse(r, raw, wireVec, vrng)
				}
			}
			end := time.Now()
			tr.add(idx, layer, "round", cls, end.Add(-el), end)
			if err == nil {
				err = check()
			}
			tl.record(fmt.Sprintf("%s traced %s call %d (%s)", w.name, layer, idx, cls), err)
			if err == nil {
				res.layer[cls][layer] = append(res.layer[cls][layer], ms(el))
			}
		}
		tr.add(idx, "round", "", cls, roundStart, time.Now())
		if wantVec && len(res.schedEff) < 3 {
			tl.record(fmt.Sprintf("%s captured solve %d", w.name, idx), res.replay(r))
		}
	}
	res.server, res.coord, res.pool[1] = env.srv.Stats(), env.coord.Stats(), pool.Counters()
	return res, nil
}

// addCore accumulates one core solve's task-level statistics.
func (c *chainResult) addCore(r request, cr *core.Result, wall time.Duration) {
	c.nReq[r.class()]++
	var sum time.Duration
	for class, d := range cr.Stats.TaskTimes() {
		sum += d
		c.taskMS[class] += ms(d)
	}
	if r.values {
		return
	}
	c.taskSum = append(c.taskSum, ms(sum))
	c.busy = append(c.busy, float64(sum)/(float64(wall)*libWorkers))
	c.defl = append(c.defl, cr.Stats.DeflationRatio())
}

// replay solves r once more with graph capture and replays the captured DAG
// on the same worker count: the replay's makespan over the measured wall
// time is the scheduling efficiency. Capture costs time, so this call is
// not one of the paired layer samples.
func (c *chainResult) replay(r request) error {
	n := r.t.N()
	d := append([]float64(nil), r.t.D...)
	e := append([]float64(nil), r.t.E...)
	q := make([]float64, n*n)
	t0 := time.Now()
	cr, err := core.SolveDCContext(context.Background(), n, d, e, q, n, &core.Options{Workers: libWorkers, CaptureGraph: true})
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	if cr.Graph == nil {
		return fmt.Errorf("n=%d solve captured no task graph", n)
	}
	sim, err := sched.Simulate(cr.Graph, sched.Config{Workers: libWorkers})
	if err != nil {
		return err
	}
	c.schedEff = append(c.schedEff, sim.Makespan/wall.Seconds())
	c.tasks = append(c.tasks, float64(len(cr.Graph.Tasks)))
	return nil
}

// chainMetrics turns the paired layer timings into per-layer metrics and
// prints the layer table (median and interquartile range per layer) to
// standard error.
func chainMetrics(c *chainResult, m metrics) {
	self := func(cls, outer, inner string) float64 {
		return median(c.samples(cls, outer)) - median(c.samples(cls, inner))
	}
	for _, cls := range []string{"full", "values"} {
		fmt.Fprintf(os.Stderr, "perfbench: traced layers, %s class:\n", cls)
		for i, l := range chainLayers {
			xs := c.samples(cls, l)
			s := median(xs)
			if i > 0 {
				s = self(cls, l, chainLayers[i-1])
			}
			fmt.Fprintf(os.Stderr, "  %-12s n=%-4d median %9.3f ms  iqr %8.3f ms  self %9.3f ms\n", l, len(xs), median(xs), iqr(xs), s)
		}
	}
	m.set("core.wall_ms", median(c.samples("full", "core")), "ms")
	m.set("core.task_sum_ms", median(c.taskSum), "ms")
	m.set("core.busy_frac", median(c.busy), "ratio")
	m.set("core.sched_eff", median(c.schedEff), "ratio")
	m.set("core.deflation_ratio", median(c.defl), "ratio")
	m.set("core.tasks", median(c.tasks), "count")
	for _, class := range coreClasses {
		// UpdateZ runs only in the values-only lane; every other class is
		// reported per full-eigenpair request.
		per := "full"
		if class == "UpdateZ" {
			per = "values"
		}
		m.set("core.task_ms."+class, c.taskMS[class]/float64(max(c.nReq[per], 1)), "ms")
	}
	p0, p1 := c.pool[0], c.pool[1]
	m.set("pool.hit_ratio", float64(p1.Hits-p0.Hits)/float64(max(p1.Gets-p0.Gets, 1)), "ratio")
	m.set("pool.retained_mb", float64(p1.RetainedBytes)/(1<<20), "MiB")
	m.set("eigen.solve_ms", median(c.samples("full", "eigen")), "ms")
	m.set("eigen.self_ms", self("full", "eigen", "core"), "ms")
	m.set("server.self_ms", self("full", "server", "eigen"), "ms")
	m.set("server.coalesced_frac", float64(c.server.CoalescedJobs)/float64(max(c.server.Admitted, 1)), "ratio")
	m.set("server.retries", float64(c.server.Retries), "count")
	m.set("worker_http.self_ms", self("full", "worker_http", "server"), "ms")
	m.set("worker_http.resp_bytes", median(c.respBytes), "bytes")
	m.set("coord.self_ms", self("full", "coord", "worker_http"), "ms")
	m.set("coord.failovers", float64(c.coord.Retries), "count")
	m.set("coord.checksum_mismatches", float64(c.coord.ChecksumMismatches), "count")
	m.set("values.core_ms", median(c.samples("values", "core")), "ms")
	m.set("values.eigen_self_ms", self("values", "eigen", "core"), "ms")
	m.set("values.server_self_ms", self("values", "server", "eigen"), "ms")
	m.set("values.worker_http_self_ms", self("values", "worker_http", "server"), "ms")
	m.set("values.coord_self_ms", self("values", "coord", "worker_http"), "ms")
}

// runTraced is the per-layer run: kernel micro-measurements, then the
// workload's own end-to-end loop with spans recorded (its figures, set
// against an untraced run's, show the tracing overhead), then the paired
// layer calls. The spans are written to tracePath when the run ends.
func runTraced(w workload, bin string, seed int64, dur time.Duration, tracePath string, header any) (metrics, *tally, error) {
	m := metrics{}
	tr := newTracer()
	tl := &tally{}
	steal := startSteal()
	if err := microMetrics(w, seed, m); err != nil {
		return nil, nil, fmt.Errorf("kernel measurements: %w", err)
	}

	e2eDur := dur * 3 / 10
	var st *runStats
	var err error
	if w.svc {
		st, _, _, err = runSvc(w, bin, seed, e2eDur, 1, tr)
	} else {
		st, err = runLib(w, seed, e2eDur, tr)
	}
	if err != nil {
		return nil, nil, err
	}
	tl.attempted, tl.failed = st.tally.attempted, st.tally.failed
	m.set("traced.latency_p50_ms", median(st.full), "ms")
	m.set("traced.values_p50_ms", median(st.values), "ms")
	p := highestTail(len(st.lag))
	fmt.Fprintf(os.Stderr, "perfbench: generator lag tail is p%g of %d requests\n", 100*p, len(st.lag))
	m.set("loadgen.lag_tail_ms", quantile(st.lag, p), "ms")

	c, err := runChain(w, seed, dur/2, tr, tl)
	if err != nil {
		return nil, nil, err
	}
	chainMetrics(c, m)
	m.set("host.steal_pct", steal.pct(), "%")
	return m, tl, tr.write(tracePath, header)
}
