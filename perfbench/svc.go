package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"tridiag/eigen/cluster"
)

// svcRate is svc-mix's offered load in requests per second. It is a
// constant, never recalibrated per run: at this rate the worker and the
// coordinator together use about a fifth of a 2-vCPU host, far from
// saturation, and a 40-second run holds about 120 values requests, enough
// for a p90. At twice the load, queueing amplified the host's own drift
// into run-to-run spreads of 25% on the values class.
const svcRate = 15.0

// svcWarmups is how many requests each set-up sends through the coordinator
// before the service counts as ready.
const svcWarmups = 6

// eigserveProc is one eigserve child process.
type eigserveProc struct {
	cmd *exec.Cmd
	url string
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startEigserve starts bin on a free loopback port; every flag not in args
// keeps its default.
func startEigserve(bin string, args ...string) (*eigserveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting eigserve: %w", err)
	}
	return &eigserveProc{cmd: cmd, url: "http://" + addr}, nil
}

// stop asks the process to drain, kills it if it has not exited within ten
// seconds, and waits for it.
func (p *eigserveProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// svcCluster is the deployed path: one worker eigserve behind one
// coordinator eigserve, both real child processes with default flags.
type svcCluster struct {
	worker, coord *eigserveProc
	client        *http.Client
}

func (c *svcCluster) stop() {
	c.client.CloseIdleConnections()
	if c.coord != nil {
		c.coord.stop()
	}
	c.worker.stop()
}

func (c *svcCluster) pids() []int {
	return []int{c.worker.cmd.Process.Pid, c.coord.cmd.Process.Pid}
}

// cpu returns the CPU time both eigserve processes have used.
func (c *svcCluster) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, pid := range c.pids() {
		t, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s (last error: %v)", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wireBody encodes r as a /solve request.
func wireBody(r request, vectors bool) []byte {
	b, err := json.Marshal(cluster.SolveRequest{D: r.t.D, E: r.t.E, Vectors: vectors, ValuesOnly: r.values})
	if err != nil {
		panic(err) // generated inputs are finite, and finite floats always encode
	}
	return b
}

// postSolve sends one /solve request and returns the whole response body; a
// non-200 status is an error.
func postSolve(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

// svcWarmup returns set-up s's warm-up requests: the largest small class and
// the values class, so the worker's pool holds both lanes' workspace.
func svcWarmup(seed int64, s int) []request {
	warm := make([]request, svcWarmups)
	for i := range warm {
		rng := requestRNG(seed, streamSetup, s*svcWarmups+i)
		if i%3 == 2 {
			warm[i] = request{t: perturbedLegendre(valuesN, rng), values: true}
		} else {
			warm[i] = request{t: randomTridiagonal(smallNs[len(smallNs)-1], rng)}
		}
	}
	return warm
}

// startCluster spawns the worker and the coordinator, waits until both
// answer /readyz, and sends the warm-up requests through the coordinator.
// It returns the set-up time, which excludes encoding the warm-up inputs.
func startCluster(bin string, warm []request) (*svcCluster, time.Duration, error) {
	bodies := make([][]byte, len(warm))
	for i, r := range warm {
		bodies[i] = wireBody(r, !r.values)
	}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
		Timeout:   60 * time.Second,
	}
	t0 := time.Now()
	w, err := startEigserve(bin)
	if err != nil {
		return nil, 0, err
	}
	c := &svcCluster{worker: w, client: client}
	if c.coord, err = startEigserve(bin, "-role", "coordinator", "-worker", w.url); err != nil {
		c.stop()
		return nil, 0, err
	}
	for _, u := range []string{w.url, c.coord.url} {
		if err := waitReady(client, u); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	for i, body := range bodies {
		raw, err := postSolve(client, c.coord.url, body)
		if err == nil {
			err = checkResponse(warm[i], raw, !warm[i].values, requestRNG(0, streamVerify, i))
		}
		if err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return c, time.Since(t0), nil
}

// runSvc sets the cluster up setups times (each set-up timed; the last
// cluster stays up) and then offers the workload's requests as an open
// loop: seeded Poisson arrivals at svcRate for dur, from this one client
// over at most nproc connections. Each request is timed from its due time
// to its last response byte and verified once its clock has stopped. It
// returns the run's statistics, the set-up times in seconds and the summed
// peak RSS (MiB) of the two eigserve processes.
func runSvc(w workload, bin string, seed int64, dur time.Duration, setups int, tr *tracer) (*runStats, []float64, float64, error) {
	var c *svcCluster
	var setupS []float64
	for s := 0; s < setups; s++ {
		if c != nil {
			c.stop()
		}
		cl, el, err := startCluster(bin, svcWarmup(seed, s))
		if err != nil {
			return nil, nil, 0, err
		}
		c = cl
		setupS = append(setupS, el.Seconds())
	}
	defer c.stop()

	due := poissonSchedule(requestRNG(seed, streamArrivals, 0), svcRate, dur)
	reqs := make([]request, len(due))
	bodies := make([][]byte, len(due))
	for i := range due {
		reqs[i] = w.request(seed, streamMeasure, i)
		bodies[i] = wireBody(reqs[i], !reqs[i].values)
	}
	st := &runStats{}
	samples := make([]openSample, len(due))
	// Response bodies are kept and decoded only after the window, so the
	// client's decoding and verification never compete with the service
	// for the host's CPUs.
	raws := make([][]byte, len(due))
	errs := make([]error, len(due))
	cpu0, err := c.cpu()
	if err != nil {
		return nil, nil, 0, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range due {
		time.Sleep(time.Until(start.Add(due[i])))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := time.Since(start)
			raws[i], errs[i] = postSolve(c.client, c.coord.url, bodies[i])
			samples[i] = openSample{due: due[i], sent: sent, done: time.Since(start)}
		}(i)
	}
	wg.Wait()
	cpu1, err := c.cpu()
	if err != nil {
		return nil, nil, 0, err
	}
	st.cpu = cpu1 - cpu0
	verified := make([]bool, len(due))
	for i, r := range reqs {
		err := errs[i]
		if err == nil {
			err = checkResponse(r, raws[i], !r.values, requestRNG(seed, streamVerify, i))
		}
		raws[i] = nil
		verified[i] = err == nil
		st.tally.record(fmt.Sprintf("%s request %d (%s, n=%d)", w.name, i, r.class(), r.t.N()), err)
	}
	var rss float64
	for _, pid := range c.pids() {
		r, err := peakRSS(pid)
		if err != nil {
			return nil, nil, 0, err
		}
		rss += r
	}
	for i, s := range samples {
		st.lag = append(st.lag, ms(s.lag()))
		if verified[i] {
			st.addLatency(reqs[i], s.latency())
		}
		tr.add(i, "request", "", reqs[i].class(), start.Add(s.due), start.Add(s.done))
	}
	return st, setupS, rss, nil
}
