package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetLengthAndClass(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1000, 1 << 10, (1 << 10) + 1} {
		s := Get(n)
		if len(s) != n {
			t.Fatalf("Get(%d): len %d", n, len(s))
		}
		if c := cap(s); c&(c-1) != 0 {
			t.Fatalf("Get(%d): cap %d not a power of two", n, c)
		}
		Put(s)
	}
}

func TestGetZeroAndPutForeign(t *testing.T) {
	if s := Get(0); s != nil {
		t.Fatal("Get(0) should be nil")
	}
	if s := Get(-3); s != nil {
		t.Fatal("Get(-3) should be nil")
	}
	Put(nil)                  // must not panic
	Put(make([]float64, 100)) // non-power-of-two cap: dropped, no panic
}

func TestAccountantGetPut(t *testing.T) {
	base := InUseBytes()
	s := Get(100) // class 128 → 1024 bytes
	if got := InUseBytes() - base; got != 1024 {
		t.Fatalf("after Get(100): charged %d bytes, want 1024", got)
	}
	r := Get(1 << 12) // exact power of two: 4096 floats
	if got := InUseBytes() - base; got != 1024+8<<12 {
		t.Fatalf("after second Get: charged %d bytes, want %d", got, 1024+8<<12)
	}
	Put(s)
	Put(r)
	if got := InUseBytes() - base; got != 0 {
		t.Fatalf("after Put: %d bytes still charged", got)
	}
}

func TestAccountantClassBytes(t *testing.T) {
	if b := ClassBytes(200); b != 2048 {
		t.Fatalf("ClassBytes(200) = %d, want 2048", b)
	}
	if b := ClassBytes(0); b != 0 {
		t.Fatalf("ClassBytes(0) = %d, want 0", b)
	}
	// Requests beyond the largest class are unaccounted plain allocations.
	if b := ClassBytes(1 << 29); b != 0 {
		t.Fatalf("ClassBytes(huge) = %d, want 0", b)
	}
}

func TestRetainedBytesAndTrim(t *testing.T) {
	TrimAll()
	if got := RetainedBytes(); got != 0 {
		t.Fatalf("RetainedBytes after TrimAll = %d", got)
	}
	bufs := make([][]float64, 6)
	for i := range bufs {
		bufs[i] = Get(1 << 10)
	}
	for _, b := range bufs {
		Put(b)
	}
	ret := RetainedBytes()
	if ret <= 0 {
		t.Fatalf("RetainedBytes after Puts = %d, want > 0", ret)
	}
	if freed := TrimAll(); RetainedBytes() != 0 {
		t.Fatalf("TrimAll freed %d but %d still retained", freed, RetainedBytes())
	}
}

func TestRetainLimitStopsRetention(t *testing.T) {
	prev := retainLimit.Swap(0)
	defer retainLimit.Store(prev)
	TrimAll()
	s := Get(1 << 10)
	base := InUseBytes()
	Put(s)
	if got := RetainedBytes(); got != 0 {
		t.Fatalf("retained %d bytes with a zero retain limit", got)
	}
	// The checkout itself must still be credited even though the buffer
	// was dropped.
	if got := base - InUseBytes(); got != 8<<10 {
		t.Fatalf("dropped Put credited %d bytes, want %d", got, 8<<10)
	}

	// A limit of four class-1024 buffers: eight Puts keep four, and
	// retention is never above the limit on the way.
	lim := int64(4 * 8 << 10)
	retainLimit.Store(lim)
	bufs := make([][]float64, 8)
	for i := range bufs {
		bufs[i] = Get(1 << 10)
	}
	before := Counters()
	for _, b := range bufs {
		Put(b)
		if got := RetainedBytes(); got > lim {
			t.Fatalf("retained %d bytes, limit %d", got, lim)
		}
	}
	after := Counters()
	if got := RetainedBytes(); got != lim {
		t.Fatalf("eight Puts under a four-buffer limit retained %d bytes, want %d", got, lim)
	}
	if got := after.DroppedCap - before.DroppedCap; got != 4 {
		t.Fatalf("DroppedCap rose by %d, want 4", got)
	}
	TrimAll()
}

// TestIdleBuffersServeAnyGoroutine checks that a buffer Put by one
// goroutine serves a Get on any other: a merge takes its workspace in one
// task and returns it from whichever panel task finishes last.
func TestIdleBuffersServeAnyGoroutine(t *testing.T) {
	TrimAll()
	const k = 16
	put := map[*float64]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		bufs := make([][]float64, k)
		for i := range bufs {
			bufs[i] = Get(1 << 10)
			put[&bufs[i][0]] = true
		}
		for _, b := range bufs {
			Put(b)
		}
	}()
	<-done
	before := Counters()
	got := make(chan [][]float64)
	go func() {
		bufs := make([][]float64, k)
		for i := range bufs {
			bufs[i] = Get(1 << 10)
		}
		got <- bufs
	}()
	bufs := <-got
	after := Counters()
	if hits := after.Hits - before.Hits; hits != k {
		t.Errorf("%d Gets on another goroutine hit %d idle buffers, want %d", k, hits, k)
	}
	for _, b := range bufs {
		if !put[&b[0]] {
			t.Errorf("a Get allocated instead of reusing one of the %d idle buffers", k)
			break
		}
	}
	for _, b := range bufs {
		Put(b)
	}
	TrimAll()
}

// TestPoolConcurrentGetPut passes buffers of mixed classes from the
// goroutines that Get them to others that Put them, under a retain limit
// small enough that Puts compete for it.
func TestPoolConcurrentGetPut(t *testing.T) {
	lim := int64(256 << 10)
	prev := retainLimit.Swap(lim)
	defer retainLimit.Store(prev)
	TrimAll()
	base := InUseBytes()
	before := Counters()
	const producers, perProducer = 4, 200
	sizes := []int{100, 1000, 3000, 20000}
	ch := make(chan []float64)
	var over atomic.Int64
	var prod, cons sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				s := Get(sizes[(p+i)%len(sizes)])
				s[0], s[len(s)-1] = float64(p), float64(i)
				ch <- s
			}
		}(p)
	}
	for c := 0; c < producers; c++ {
		cons.Add(1)
		go func() {
			defer cons.Done()
			for s := range ch {
				s[0] += s[len(s)-1]
				Put(s)
				if r := RetainedBytes(); r > lim {
					over.Store(r)
				}
			}
		}()
	}
	prod.Wait()
	close(ch)
	cons.Wait()
	after := Counters()
	if got := InUseBytes(); got != base {
		t.Errorf("InUseBytes %d after every buffer came back, baseline %d", got, base)
	}
	if r := over.Load(); r != 0 {
		t.Errorf("RetainedBytes reached %d, limit %d", r, lim)
	}
	if r := RetainedBytes(); r > lim {
		t.Errorf("RetainedBytes %d at the end, limit %d", r, lim)
	}
	if after.DoublePuts != before.DoublePuts || after.ForeignPuts != before.ForeignPuts {
		t.Errorf("DoublePuts %d → %d, ForeignPuts %d → %d: a legal hand-off was flagged",
			before.DoublePuts, after.DoublePuts, before.ForeignPuts, after.ForeignPuts)
	}
	if r, freed := RetainedBytes(), TrimAll(); freed != r || RetainedBytes() != 0 {
		t.Errorf("TrimAll freed %d of %d retained bytes, %d left", freed, r, RetainedBytes())
	}
}

func TestRecycleRoundTrip(t *testing.T) {
	s := Get(100)
	for i := range s {
		s[i] = float64(i)
	}
	Put(s)
	// A subsequent Get of the same class may return the same backing array
	// with unspecified contents; it must still have the right length.
	r := Get(65)
	if len(r) != 65 || cap(r) < 65 {
		t.Fatalf("recycled Get(65): len=%d cap=%d", len(r), cap(r))
	}
	Put(r)
}

// BenchmarkGetPut is one Get+Put pair per iteration on every goroutine
// RunParallel starts.
func BenchmarkGetPut(b *testing.B) {
	TrimAll()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Put(Get(1000))
		}
	})
}

// BenchmarkGetPutCrossGoroutine takes each buffer on one goroutine and
// returns it on another, as a merge's workspace goes from the task that
// takes it to the panel task that finishes last.
func BenchmarkGetPutCrossGoroutine(b *testing.B) {
	TrimAll()
	// The buffer lets the Gets run ahead of the Puts, as a merge's tasks
	// do, instead of timing one rendezvous per buffer.
	ch := make(chan []float64, 16)
	done := make(chan struct{})
	go func() {
		for s := range ch {
			Put(s)
		}
		close(done)
	}()
	for i := 0; i < b.N; i++ {
		ch <- Get(1000)
	}
	close(ch)
	<-done
}
