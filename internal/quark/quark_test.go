package quark

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSequentialConsistencyRAW(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	h := rt.Handle("x")
	var x int
	var got int
	rt.Submit("W", "write", func() { x = 42 }, Write(h))
	rt.Submit("R", "read", func() { got = x }, Read(h))
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("read-after-write: got %d", got)
	}
}

func TestWriteAfterReadOrdering(t *testing.T) {
	// WAR: the write must wait for the slow reader.
	rt := New(4)
	defer rt.Shutdown()
	h := rt.Handle("x")
	x := 1
	var seen int64
	rt.Submit("R", "slow-read", func() {
		time.Sleep(10 * time.Millisecond)
		atomic.StoreInt64(&seen, int64(x))
	}, Read(h))
	rt.Submit("W", "write", func() { x = 2 }, Write(h))
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&seen) != 1 {
		t.Errorf("writer overtook reader: saw %d", seen)
	}
}

func TestChainOfInOut(t *testing.T) {
	rt := New(8)
	defer rt.Shutdown()
	h := rt.Handle("acc")
	acc := 0
	for i := 0; i < 100; i++ {
		i := i
		rt.Submit("A", fmt.Sprintf("step%d", i), func() { acc = acc*2 + i%2 }, ReadWrite(h))
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 100; i++ {
		want = want*2 + i%2
	}
	if acc != want {
		t.Errorf("InOut chain ran out of order: %d != %d", acc, want)
	}
}

func TestReadersRunConcurrently(t *testing.T) {
	// Two readers of the same handle must be able to overlap: each waits
	// for the other to start, which deadlocks if they were serialized.
	rt := New(2)
	defer rt.Shutdown()
	h := rt.Handle("x")
	var wg sync.WaitGroup
	wg.Add(2)
	meet := func() {
		wg.Done()
		wg.Wait()
	}
	done := make(chan error, 1)
	go func() {
		rt.Submit("R", "r1", meet, Read(h))
		rt.Submit("R", "r2", meet, Read(h))
		done <- rt.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("readers were serialized (deadlock)")
	}
}

func TestGathervGroupConcurrent(t *testing.T) {
	// Gatherv tasks on one handle must overlap each other.
	rt := New(2)
	defer rt.Shutdown()
	h := rt.Handle("V")
	var wg sync.WaitGroup
	wg.Add(2)
	meet := func() {
		wg.Done()
		wg.Wait()
	}
	done := make(chan error, 1)
	go func() {
		rt.Submit("G", "g1", meet, Gather(h))
		rt.Submit("G", "g2", meet, Gather(h))
		done <- rt.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gatherv tasks were serialized (deadlock)")
	}
}

func TestWriterWaitsForGathervGroup(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	h := rt.Handle("V")
	var count int64
	for i := 0; i < 6; i++ {
		rt.Submit("G", "g", func() {
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&count, 1)
		}, Gather(h))
	}
	var atJoin int64
	rt.Submit("J", "join", func() { atJoin = atomic.LoadInt64(&count) }, ReadWrite(h))
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if atJoin != 6 {
		t.Errorf("join ran before gatherv group finished: saw %d of 6", atJoin)
	}
}

func TestReaderWaitsForGatherers(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	h := rt.Handle("V")
	x := 0
	rt.Submit("G", "g", func() {
		time.Sleep(5 * time.Millisecond)
		x = 7
	}, Gather(h))
	var got int
	rt.Submit("R", "r", func() { got = x }, Read(h))
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("reader overtook gatherv writer: %d", got)
	}
}

func TestIndependentHandlesOverlap(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	h1, h2 := rt.Handle("a"), rt.Handle("b")
	var wg sync.WaitGroup
	wg.Add(2)
	meet := func() { wg.Done(); wg.Wait() }
	done := make(chan error, 1)
	go func() {
		rt.Submit("W", "w1", meet, Write(h1))
		rt.Submit("W", "w2", meet, Write(h2))
		done <- rt.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("independent writers were serialized")
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	h := rt.Handle("x")
	rt.Submit("B", "boom", func() { panic("kernel exploded") }, Write(h))
	ran := false
	rt.Submit("R", "after", func() { ran = true }, Read(h))
	err := rt.Wait()
	if err == nil {
		t.Fatal("expected error from panicking task")
	}
	if ran {
		t.Error("successor of a failed task must be skipped, not run")
	}
	if rt.Skipped() != 1 {
		t.Errorf("skipped count %d, want 1", rt.Skipped())
	}
	// error value panics are unwrapped
	rt2 := New(1)
	defer rt2.Shutdown()
	sentinel := errors.New("sentinel")
	rt2.Submit("B", "boom2", func() { panic(sentinel) })
	if err := rt2.Wait(); !errors.Is(err, sentinel) {
		t.Errorf("expected sentinel, got %v", err)
	}
}

func TestFailureSkipsTransitiveSuccessors(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	h1, h2 := rt.Handle("a"), rt.Handle("b")
	var ranA, ranB, ranOther int64
	rt.Submit("B", "boom", func() { panic("root failure") }, Write(h1))
	rt.Submit("A", "succ", func() { atomic.AddInt64(&ranA, 1) }, ReadWrite(h1))
	rt.Submit("B2", "succ-of-succ", func() { atomic.AddInt64(&ranB, 1) }, Read(h1))
	// an unrelated branch must be unaffected by the failure
	rt.Submit("O", "independent", func() { atomic.AddInt64(&ranOther, 1) }, Write(h2))
	err := rt.Wait()
	if err == nil || !strings.Contains(err.Error(), "root failure") {
		t.Fatalf("expected root failure, got %v", err)
	}
	if ranA != 0 || ranB != 0 {
		t.Errorf("transitive successors ran: %d %d", ranA, ranB)
	}
	if ranOther != 1 {
		t.Errorf("independent branch skipped: %d", ranOther)
	}
	if rt.Skipped() != 2 {
		t.Errorf("skipped %d, want 2", rt.Skipped())
	}
	// tasks submitted after the failure completed are skipped too
	ranLate := false
	rt.Submit("L", "late", func() { ranLate = true }, Read(h1))
	if err := rt.Wait(); err == nil {
		t.Fatal("error must persist")
	}
	if ranLate {
		t.Error("late successor of a failed task ran")
	}
}

func TestRootCauseErrorNotMasked(t *testing.T) {
	// A failing join whose successors would panic on nil state: Wait must
	// report the join's error, and the would-be secondary panics never fire.
	rt := New(4)
	defer rt.Shutdown()
	h := rt.Handle("merge")
	var state *struct{ v int }
	rt.Submit("Join", "deflate", func() {
		panic(errors.New("corrupted merge"))
	}, Write(h))
	for i := 0; i < 8; i++ {
		rt.Submit("Panel", fmt.Sprintf("panel%d", i), func() {
			_ = state.v // would nil-deref if executed
		}, Read(h))
	}
	err := rt.Wait()
	if err == nil || !strings.Contains(err.Error(), "corrupted merge") {
		t.Fatalf("root cause lost: %v", err)
	}
	if !strings.Contains(err.Error(), "deflate") {
		t.Errorf("error should name the failing task: %v", err)
	}
	if rt.Skipped() != 8 {
		t.Errorf("skipped %d, want 8", rt.Skipped())
	}
}

func TestPriorityOrderAndFIFOTieBreak(t *testing.T) {
	// Numeric priority levels must be respected (5 before 1 before 0) and
	// tasks of equal priority must run in submission order. The seed
	// runtime's prepend-on-any-priority queue failed both: levels were
	// ignored and same-priority tasks ran in reverse (LIFO) order.
	rt := New(1)
	defer rt.Shutdown()
	block := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var order []string
	add := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	// The blocker must hold the worker before the others become ready, or
	// p1-a (priority 1) is rightly popped ahead of it.
	rt.Submit("B", "block", func() { close(started); <-block })
	<-started
	rt.SubmitPrio("T", "p1-a", 1, add("p1-a"))
	rt.SubmitPrio("T", "p5-a", 5, add("p5-a"))
	rt.Submit("T", "p0-a", add("p0-a"))
	rt.SubmitPrio("T", "p5-b", 5, add("p5-b"))
	rt.SubmitPrio("T", "p1-b", 1, add("p1-b"))
	rt.Submit("T", "p0-b", add("p0-b"))
	close(block)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p5-a", "p5-b", "p1-a", "p1-b", "p0-a", "p0-b"}
	if len(order) != len(want) {
		t.Fatalf("ran %d tasks, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestGlobalPriorityAcrossWorkers(t *testing.T) {
	// Priorities are global: a worker that frees up runs the best ready task
	// in the whole runtime. Both workers are held while six tasks become
	// ready; the worker released first must run all six in priority order,
	// submission order within a level. Per-worker queues failed this: the
	// freed worker drained its own queue first ([p5-a p1-a p0-a p5-b ...]).
	rt := New(2)
	defer rt.Shutdown()
	var started sync.WaitGroup
	started.Add(2)
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	for i, ch := range release {
		rt.Submit("B", fmt.Sprintf("block%d", i), func() { started.Done(); <-ch })
	}
	started.Wait()
	var mu sync.Mutex
	var order []string
	var ran sync.WaitGroup
	for _, s := range []struct {
		label string
		prio  int
	}{{"p0-a", 0}, {"p0-b", 0}, {"p5-a", 5}, {"p5-b", 5}, {"p1-a", 1}, {"p1-b", 1}} {
		ran.Add(1)
		rt.SubmitPrio("T", s.label, s.prio, func() {
			mu.Lock()
			order = append(order, s.label)
			mu.Unlock()
			ran.Done()
		})
	}
	close(release[0])
	ran.Wait()
	close(release[1])
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p5-a", "p5-b", "p1-a", "p1-b", "p0-a", "p0-b"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

func TestRandomDAGStressAcrossWorkers(t *testing.T) {
	// Hundreds of tasks with random In/Out/InOut/Gatherv mixes at several
	// pool sizes, validated two ways: every captured dependency edge is
	// respected by the measured timings, and an InOut counter chain per
	// handle observes sequentially consistent updates. Run with -race to
	// check the scheduler's synchronization.
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(97 + workers)))
			rt := New(workers, WithGraphCapture())
			defer rt.Shutdown()
			const nh = 7
			handles := make([]*Handle, nh)
			vals := make([]int, nh)
			writes := make([]int, nh)
			for i := range handles {
				handles[i] = rt.Handle(fmt.Sprintf("h%d", i))
			}
			modes := []AccessMode{In, Out, InOut, Gatherv}
			const n = 400
			for i := 0; i < n; i++ {
				var acc []Access
				used := map[int]bool{}
				var bump []int
				for j := 0; j < 1+rng.Intn(3); j++ {
					hi := rng.Intn(nh)
					if used[hi] {
						continue
					}
					used[hi] = true
					m := modes[rng.Intn(len(modes))]
					acc = append(acc, Access{handles[hi], m})
					if m == InOut {
						bump = append(bump, hi)
						writes[hi]++
					}
				}
				prio := rng.Intn(4)
				rt.SubmitPrio("K", fmt.Sprintf("t%d", i), prio, func() {
					for _, hi := range bump {
						vals[hi]++ // safe iff InOut chains are serialized
					}
				}, acc...)
			}
			if err := rt.Wait(); err != nil {
				t.Fatal(err)
			}
			for hi := range vals {
				if vals[hi] != writes[hi] {
					t.Errorf("handle %d: %d updates, want %d (lost under contention)", hi, vals[hi], writes[hi])
				}
			}
			g := rt.Graph()
			if len(g.Tasks) != n {
				t.Fatalf("captured %d tasks, want %d", len(g.Tasks), n)
			}
			for _, e := range g.Edges {
				a, b := g.Tasks[e[0]], g.Tasks[e[1]]
				if b.Start < a.End {
					t.Fatalf("edge %d->%d violated: succ started %v before pred ended %v", e[0], e[1], b.Start, a.End)
				}
			}
			for _, ti := range g.Tasks {
				if ti.Worker < 0 || ti.Worker >= workers {
					t.Fatalf("task %d ran on bogus worker %d", ti.ID, ti.Worker)
				}
			}
		})
	}
}

func TestPriorityJumpsQueue(t *testing.T) {
	rt := New(1)
	defer rt.Shutdown()
	block := make(chan struct{})
	var order []string
	var mu sync.Mutex
	add := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	rt.Submit("B", "block", func() { <-block })
	rt.Submit("N", "normal", add("normal"))
	rt.SubmitPrio("P", "prio", 5, add("prio"))
	close(block)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "prio" {
		t.Errorf("priority order: %v", order)
	}
}

func TestGraphCaptureRespectsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rt := New(4, WithGraphCapture())
	defer rt.Shutdown()
	handles := make([]*Handle, 5)
	for i := range handles {
		handles[i] = rt.Handle(fmt.Sprintf("h%d", i))
	}
	modes := []AccessMode{In, Out, InOut, Gatherv}
	n := 120
	for i := 0; i < n; i++ {
		var acc []Access
		used := map[int]bool{}
		for j := 0; j < 1+rng.Intn(3); j++ {
			hi := rng.Intn(len(handles))
			if used[hi] {
				continue
			}
			used[hi] = true
			acc = append(acc, Access{handles[hi], modes[rng.Intn(len(modes))]})
		}
		sleep := time.Duration(rng.Intn(200)) * time.Microsecond
		rt.Submit("K", fmt.Sprintf("t%d", i), func() { time.Sleep(sleep) }, acc...)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	if len(g.Tasks) != n {
		t.Fatalf("captured %d tasks, want %d", len(g.Tasks), n)
	}
	for _, e := range g.Edges {
		a, b := g.Tasks[e[0]], g.Tasks[e[1]]
		if b.Start < a.End {
			t.Fatalf("edge %d->%d violated: %v starts before %v ends", e[0], e[1], b.Start, a.End)
		}
	}
	for _, ti := range g.Tasks {
		if ti.Worker < 0 || ti.End < ti.Start {
			t.Fatalf("task %d has bogus timing: %+v", ti.ID, ti)
		}
	}
}

func TestWaitThenSubmitAgain(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	h := rt.Handle("x")
	x := 0
	rt.Submit("A", "a", func() { x = 1 }, Write(h))
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Submit("B", "b", func() { x *= 10 }, ReadWrite(h))
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if x != 10 {
		t.Errorf("phased submission: %d", x)
	}
}

func TestProgressHeartbeat(t *testing.T) {
	var beats atomic.Int64
	rt := New(4, WithProgress(func() { beats.Add(1) }))
	defer rt.Shutdown()
	h := rt.Handle("x")
	const tasks = 50
	for i := 0; i < tasks; i++ {
		rt.Submit("A", fmt.Sprintf("t%d", i), func() {}, ReadWrite(h))
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := beats.Load(); got != tasks {
		t.Errorf("progress fired %d times for %d executed tasks", got, tasks)
	}
}

func TestProgressNotReportedForSkippedTasks(t *testing.T) {
	var beats atomic.Int64
	rt := New(2, WithProgress(func() { beats.Add(1) }))
	defer rt.Shutdown()
	h := rt.Handle("x")
	boom := errors.New("boom")
	rt.Submit("A", "fail", func() { panic(boom) }, Write(h))
	for i := 0; i < 20; i++ {
		rt.Submit("B", fmt.Sprintf("skipped%d", i), func() {}, ReadWrite(h))
	}
	if err := rt.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait: %v, want boom", err)
	}
	// Only the executed failing task may beat: a cancellation cascade that
	// reports heartbeats would hide the stall it causes from a watchdog.
	if got := beats.Load(); got != 1 {
		t.Errorf("progress fired %d times, want 1 (skipped tasks must not beat)", got)
	}
}

func TestTaskErrorCarriesClass(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	h := rt.Handle("x")
	boom := errors.New("boom")
	rt.Submit("LAED4", "secular", func() { panic(boom) }, Write(h))
	err := rt.Wait()
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("Wait error %v does not expose *TaskError", err)
	}
	if te.Class != "LAED4" || te.Label != "secular" {
		t.Errorf("TaskError = %+v, want class LAED4 label secular", te)
	}
	if te.TaskClass() != "LAED4" {
		t.Errorf("TaskClass() = %q", te.TaskClass())
	}
	if !errors.Is(err, boom) {
		t.Error("TaskError chain lost the root cause")
	}
	want := `task "secular" (LAED4): boom`
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error text %q does not contain %q", err.Error(), want)
	}
}

func TestManyTasksStress(t *testing.T) {
	rt := New(8)
	defer rt.Shutdown()
	const nh = 16
	handles := make([]*Handle, nh)
	counters := make([]int64, nh)
	for i := range handles {
		handles[i] = rt.Handle(fmt.Sprintf("c%d", i))
	}
	const n = 5000
	for i := 0; i < n; i++ {
		hi := i % nh
		rt.Submit("inc", "i", func() { counters[hi]++ }, ReadWrite(handles[hi]))
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counters {
		total += c
	}
	if total != n {
		t.Errorf("lost updates: %d of %d", total, n)
	}
}

// BenchmarkTaskThroughput measures pure scheduling overhead: chains of no-op
// tasks over a handful of handles, so the cost is submission, dependency
// tracking, heap operations and wakeups rather than kernel work.
func BenchmarkTaskThroughput(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("W%d", workers), func(b *testing.B) {
			const nh = 8
			for i := 0; i < b.N; i++ {
				rt := New(workers)
				handles := make([]*Handle, nh)
				for j := range handles {
					handles[j] = rt.Handle("h")
				}
				for j := 0; j < 2000; j++ {
					rt.SubmitPrio("noop", "n", j%3, func() {}, ReadWrite(handles[j%nh]))
				}
				if err := rt.Wait(); err != nil {
					b.Fatal(err)
				}
				rt.Shutdown()
			}
		})
	}
}
