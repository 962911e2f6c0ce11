// Package sched replays a captured task graph on P virtual workers. It is
// the substitution for the paper's 16-core testbed on single-core hosts (see
// DESIGN.md §2): every task keeps its real measured duration, the real
// dependency structure is honoured, and a greedy list scheduler with the
// quark runtime's policy assigns tasks to virtual workers: one ready heap
// (quark.ReadyHeap, the runtime's own type and order: priority descending,
// submission order ascending) from which every free worker takes the next
// task. An optional bandwidth model stretches memory-bound tasks when
// several run concurrently, reproducing the saturation plateau of the
// paper's Figure 5.
package sched

import (
	"fmt"
	"math"

	"tridiag/internal/quark"
)

// MemoryBoundClasses lists the kernel classes the paper identifies as
// bandwidth-limited (copies rather than compute).
var MemoryBoundClasses = map[string]bool{
	"PermuteV":         true,
	"CopyBackDeflated": true,
	"SortEigenvectors": true,
	"LASET":            true,
	"Scale":            true,
	"Redistribute":     true,
	"PackV":            true,
}

// Config tunes a simulation run.
type Config struct {
	// Workers is the number of virtual workers P.
	Workers int
	// BandwidthStreams, if positive, caps the aggregate speed of
	// concurrently running memory-bound tasks: with c such tasks running,
	// each progresses at rate min(1, BandwidthStreams/c). The paper's
	// machine saturates one socket at about 4 concurrent streams.
	BandwidthStreams float64
	// StreamsPerSocket and WorkersPerSocket model the paper's two-socket
	// topology when BandwidthStreams is zero: the effective cap is
	// StreamsPerSocket × ⌈Workers / WorkersPerSocket⌉ — "4 threads
	// saturate the bandwidth of the first socket ... till we start using
	// the second socket (>8 threads)" (paper §V). Zero values disable the
	// bandwidth model entirely.
	StreamsPerSocket float64
	WorkersPerSocket int
	// MemoryBound overrides the default memory-bound class set.
	MemoryBound map[string]bool
}

// effectiveStreams resolves the bandwidth cap for the configured topology.
func (c Config) effectiveStreams() float64 {
	if c.BandwidthStreams > 0 {
		return c.BandwidthStreams
	}
	if c.StreamsPerSocket > 0 && c.WorkersPerSocket > 0 {
		sockets := (c.Workers + c.WorkersPerSocket - 1) / c.WorkersPerSocket
		return c.StreamsPerSocket * float64(sockets)
	}
	return 0
}

// Span is one task's placement in the simulated schedule.
type Span struct {
	Task   int
	Worker int
	Start  float64 // seconds
	End    float64
}

// Result reports the simulated schedule.
type Result struct {
	Makespan     float64
	TotalWork    float64
	CriticalPath float64
	Spans        []Span
	ClassTime    map[string]float64 // summed busy seconds per kernel class
	IdleFraction float64            // fraction of worker-seconds spent idle
}

// Speedup returns TotalWork / Makespan, the parallel speedup relative to the
// single-worker schedule of the same graph.
func (r *Result) Speedup() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return r.TotalWork / r.Makespan
}

type simTask struct {
	id        int
	class     string
	priority  int
	remaining float64 // seconds of full-speed work left
	memBound  bool
	pending   int
	succs     []int
	worker    int
	start     float64
}

// Simulate list-schedules the graph on cfg.Workers virtual workers and
// returns the resulting schedule. Task durations are taken from the captured
// timings; the graph must come from a run with graph capture enabled.
func Simulate(g *quark.Graph, cfg Config) (*Result, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("sched: need at least one worker")
	}
	mem := cfg.MemoryBound
	if mem == nil {
		mem = MemoryBoundClasses
	}
	n := len(g.Tasks)
	tasks := make([]simTask, n)
	var totalWork float64
	for i, ti := range g.Tasks {
		if ti.Worker < 0 {
			return nil, fmt.Errorf("sched: task %d was never executed (graph capture incomplete?)", i)
		}
		d := ti.Duration().Seconds()
		tasks[i] = simTask{id: i, class: ti.Class, priority: ti.Priority, remaining: d, memBound: mem[ti.Class], worker: -1}
		totalWork += d
	}
	for _, e := range g.Edges {
		tasks[e[0]].succs = append(tasks[e[0]].succs, e[1])
		tasks[e[1]].pending++
	}

	var ready quark.ReadyHeap[*simTask]
	for i := range tasks {
		if tasks[i].pending == 0 {
			ready.Push(tasks[i].priority, i, &tasks[i])
		}
	}

	free := make([]bool, cfg.Workers)
	for w := range free {
		free[w] = true
	}
	running := make([]int, 0, cfg.Workers)
	spans := make([]Span, 0, n)
	classTime := make(map[string]float64)

	now := 0.0
	completed := 0
	const eps = 1e-15

	for completed < n {
		// Every free worker takes the next ready task: the scheduler is
		// work-conserving, like the runtime.
		for w := 0; w < cfg.Workers && ready.Len() > 0; w++ {
			if !free[w] {
				continue
			}
			t, _ := ready.Pop()
			free[w] = false
			t.worker = w
			t.start = now
			running = append(running, t.id)
		}
		if len(running) == 0 {
			return nil, fmt.Errorf("sched: deadlock at t=%v with %d/%d tasks done (cyclic graph?)", now, completed, n)
		}

		// Progress rates: memory-bound tasks share the bandwidth cap.
		memRunning := 0
		for _, t := range running {
			if tasks[t].memBound {
				memRunning++
			}
		}
		streams := cfg.effectiveStreams()
		rate := func(t int) float64 {
			if tasks[t].memBound && streams > 0 && float64(memRunning) > streams {
				return streams / float64(memRunning)
			}
			return 1
		}

		// Advance to the next completion.
		dt := math.Inf(1)
		for _, t := range running {
			if ttf := tasks[t].remaining / rate(t); ttf < dt {
				dt = ttf
			}
		}
		now += dt
		next := running[:0]
		for _, t := range running {
			tasks[t].remaining -= dt * rate(t)
			if tasks[t].remaining <= eps {
				spans = append(spans, Span{Task: t, Worker: tasks[t].worker, Start: tasks[t].start, End: now})
				classTime[tasks[t].class] += now - tasks[t].start
				free[tasks[t].worker] = true
				completed++
				for _, s := range tasks[t].succs {
					tasks[s].pending--
					if tasks[s].pending == 0 {
						ready.Push(tasks[s].priority, s, &tasks[s])
					}
				}
			} else {
				next = append(next, t)
			}
		}
		running = next
	}

	cp, _ := g.CriticalPath()
	res := &Result{
		Makespan:     now,
		TotalWork:    totalWork,
		CriticalPath: cp,
		Spans:        spans,
		ClassTime:    classTime,
	}
	if now > 0 {
		busy := 0.0
		for _, s := range spans {
			busy += s.End - s.Start
		}
		res.IdleFraction = 1 - busy/(now*float64(cfg.Workers))
	}
	return res, nil
}

// SpeedupCurve simulates the graph for every worker count in ps and returns
// makespan(1)/makespan(p) for each (the paper's Figure 5 measurement).
// streamsPerSocket models the two-socket bandwidth topology (8 workers per
// socket, as on the paper's machine); 0 disables the bandwidth model.
func SpeedupCurve(g *quark.Graph, ps []int, streamsPerSocket float64) ([]float64, error) {
	base, err := Simulate(g, Config{Workers: 1, StreamsPerSocket: streamsPerSocket, WorkersPerSocket: 8})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		r, err := Simulate(g, Config{Workers: p, StreamsPerSocket: streamsPerSocket, WorkersPerSocket: 8})
		if err != nil {
			return nil, err
		}
		out[i] = base.Makespan / r.Makespan
	}
	return out, nil
}
