// Package pool recycles float64 scratch slices through one freelist per
// power-of-two size class. The D&C solver allocates per-merge scratch
// (deflation z vectors, Gu stabilization products, compressed eigenvector
// workspaces, GEMM pack buffers) on every merge of every solve; recycling
// them keeps the hot path allocation-free after warmup instead of churning
// the GC.
//
// Get returns a slice with unspecified contents — callers must fully
// overwrite what they read. Any goroutine may Put a buffer back: a merge
// takes its workspace in one task and the last of its panel tasks returns
// it, on whichever worker that runs. Each class's freelist is one
// mutex-guarded stack. Put keeps a buffer while the idle bytes
// (RetainedBytes) stay within the retain limit and drops it to the GC
// otherwise; TrimAll, which the solve service calls when it goes idle and
// when it drains, is the only trim.
//
// The pool carries an atomic byte accountant: Get charges the size-class
// capacity of the returned slice and Put credits it back, so InUseBytes
// reports the pooled workspace currently checked out process-wide. It is a
// gauge, not an admission input: the solve service (eigen.Server) admits
// against its own EstimateSolveBytes reservations and reports InUseBytes in
// its stats, and the leak tests use it as ground truth that every solve,
// failed and cancelled ones included, returned its workspace.
//
// The accounting assumes the package contract: only slices obtained from
// Get are handed to Put, exactly once. Violations are defended in depth:
// a credit that would drive the accountant negative is clamped to zero and
// counted (Counters().ForeignPuts), a Put of a buffer already idle in its
// class's freelist is detected and counted (Counters().DoublePuts), and
// the pooldebug build tag enables a full ownership map that panics on any
// foreign or double Put.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxClass bounds pooled capacities at 2^maxClass floats (1 GiB); larger
// requests fall through to plain allocation.
const maxClass = 27

// defaultRetainLimit is the cap on idle pooled bytes.
const defaultRetainLimit = 512 << 20

// freelist holds one size class's idle buffers, most recently Put last.
type freelist struct {
	mu   sync.Mutex
	bufs [][]float64
}

var classes [maxClass + 1]freelist

// inUse is the accountant: bytes of size-class capacity checked out by Get
// and not yet returned by Put (InUseBytes).
var inUse atomic.Int64

// retained is the idle bytes in the freelists. Put reserves a buffer's
// bytes before pushing it and Get and TrimAll release them after popping,
// so it never undercounts and never exceeds retainLimit.
var retained atomic.Int64

// retainLimit is the ceiling on retained bytes. It is always
// defaultRetainLimit outside this package's tests, which lower it.
var retainLimit atomic.Int64

func init() { retainLimit.Store(defaultRetainLimit) }

// counters are diagnostic tallies surfaced by Counters; they are separate
// atomics so the accountant itself stays a single counter.
var (
	cGets        atomic.Int64
	cHits        atomic.Int64
	cPuts        atomic.Int64
	cDroppedCap  atomic.Int64
	cForeignPuts atomic.Int64
	cDoublePuts  atomic.Int64
	cTrimmed     atomic.Int64
)

// Get returns a float64 slice of length n with unspecified contents.
func Get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if c > maxClass {
		return make([]float64, n)
	}
	inUse.Add(8 << c)
	cGets.Add(1)
	fl := &classes[c]
	fl.mu.Lock()
	var s []float64
	if k := len(fl.bufs) - 1; k >= 0 {
		s = fl.bufs[k]
		fl.bufs[k] = nil
		fl.bufs = fl.bufs[:k]
	}
	fl.mu.Unlock()
	if s != nil {
		retained.Add(-int64(8) << c)
		cHits.Add(1)
	} else {
		s = make([]float64, 1<<c)
	}
	debugOnGet(s)
	return s[:n]
}

// Put recycles a slice previously returned by Get. Slices whose capacity is
// not an exact power of two (not allocated by Get) are dropped for the GC.
// The caller must not retain any reference to s.
func Put(s []float64) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c - 1))
	if cls > maxClass {
		return
	}
	s = s[:c]
	fl := &classes[cls]
	// A second Put of a buffer still idle here is detected before it
	// corrupts the accountant a second time.
	if fl.holds(s) {
		cDoublePuts.Add(1)
		debugOnDoublePut(s)
		return
	}
	debugOnPut(s)
	bytes := int64(8) << cls
	// Credit the accountant with a clamp at zero: every legitimate Put
	// matches a prior Get charge, so a credit that would go negative proves
	// a foreign or double Put — count it and drop the suspect buffer (its
	// real owner may still be using it).
	for {
		cur := inUse.Load()
		if cur < bytes {
			if inUse.CompareAndSwap(cur, 0) {
				cForeignPuts.Add(1)
				return
			}
			continue
		}
		if inUse.CompareAndSwap(cur, cur-bytes) {
			break
		}
	}
	cPuts.Add(1)
	// Reserve the bytes within the limit, or leave the buffer to the GC
	// (the checkout itself was already credited above).
	for {
		cur := retained.Load()
		if cur+bytes > retainLimit.Load() {
			cDroppedCap.Add(1)
			return
		}
		if retained.CompareAndSwap(cur, cur+bytes) {
			break
		}
	}
	fl.mu.Lock()
	fl.bufs = append(fl.bufs, s)
	fl.mu.Unlock()
}

// holds reports whether s's backing array is idle in the freelist.
func (fl *freelist) holds(s []float64) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, b := range fl.bufs {
		if &b[0] == &s[0] {
			return true
		}
	}
	return false
}

// InUseBytes returns the pooled bytes currently checked out: everything Get
// charged minus everything Put credited back.
func InUseBytes() int64 { return inUse.Load() }

// RetainedBytes returns the idle bytes currently parked in the freelists,
// waiting for reuse. InUseBytes + RetainedBytes is the pool's total claim
// on the heap.
func RetainedBytes() int64 { return retained.Load() }

// TrimAll drops every idle buffer, returning the bytes released. Idle
// servers call this so a quiet process holds no pooled memory at all.
// Checked-out buffers are untouched; concurrent Get/Put remain safe.
func TrimAll() int64 {
	var freed int64
	for c := range classes {
		fl := &classes[c]
		fl.mu.Lock()
		n := len(fl.bufs)
		fl.bufs = nil
		fl.mu.Unlock()
		freed += int64(n) * 8 << c
	}
	retained.Add(-freed)
	cTrimmed.Add(freed)
	return freed
}

// ClassBytes returns the bytes the accountant charges for Get(n): the
// size-class capacity in bytes, or 0 when the request falls through to
// plain (unaccounted) allocation. It is the unit admission-control
// estimates are built from.
func ClassBytes(n int) int64 {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxClass {
		return 0
	}
	return 8 << c
}

// CounterSnapshot is a point-in-time copy of the pool's diagnostic tallies.
type CounterSnapshot struct {
	InUseBytes    int64 // checked-out bytes (the accountant)
	RetainedBytes int64 // idle bytes in the freelists
	RetainLimit   int64 // ceiling on RetainedBytes
	Gets          int64 // Get calls served from a size class
	Hits          int64 // Gets satisfied from a freelist
	Puts          int64 // accepted Put calls
	DroppedCap    int64 // Puts dropped by the retain limit
	ForeignPuts   int64 // Puts whose credit would go negative (clamped)
	DoublePuts    int64 // Puts of a buffer already idle in its freelist
	TrimmedBytes  int64 // cumulative bytes released by TrimAll
}

// Counters returns the pool's diagnostic tallies. The individual loads are
// not mutually atomic; treat the snapshot as advisory.
func Counters() CounterSnapshot {
	return CounterSnapshot{
		InUseBytes:    inUse.Load(),
		RetainedBytes: retained.Load(),
		RetainLimit:   retainLimit.Load(),
		Gets:          cGets.Load(),
		Hits:          cHits.Load(),
		Puts:          cPuts.Load(),
		DroppedCap:    cDroppedCap.Load(),
		ForeignPuts:   cForeignPuts.Load(),
		DoublePuts:    cDoublePuts.Load(),
		TrimmedBytes:  cTrimmed.Load(),
	}
}
