// Package pool recycles float64 scratch slices through size-classed,
// sharded freelists. The D&C solver allocates per-merge scratch (deflation
// z vectors, Gu stabilization products, compressed eigenvector workspaces,
// GEMM pack buffers) on every merge of every solve; recycling them keeps
// the hot path allocation-free after warmup instead of churning the GC.
//
// Slices are pooled by power-of-two capacity class. Get returns a slice
// with unspecified contents — callers must fully overwrite what they read.
//
// Unlike the earlier sync.Pool implementation, retention is bounded and
// explicit rather than at the GC's whim: each size class keeps at most a
// few idle buffers per shard, idle bytes are tracked exactly
// (RetainedBytes), Put stops retaining beyond a hard ceiling derived from
// the configurable retain limit, and Trim/TrimAll/TrimToCap release idle
// memory at well-defined points (solve completion via the task runtime's
// shutdown, server idle periods) instead of leaving it to pool victim
// caches. Shards give workers goroutine-affine local caches: a goroutine
// hashes to a home shard by its stack address, so a worker that keeps
// solving reuses the buffers it just warmed without bouncing them through
// a global lock, and only falls back to stealing from sibling shards on a
// local miss.
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
// counted (Counters().ForeignPuts), an immediate double Put of a buffer
// already idle in its home shard is detected and counted
// (Counters().DoublePuts), and the pooldebug build tag enables a full
// ownership map that panics on any foreign or double Put.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// maxClass bounds pooled capacities at 2^maxClass floats (1 GiB); larger
// requests fall through to plain allocation.
const maxClass = 27

const (
	// numShards is the number of goroutine-affine freelist stripes
	// (power of two). Workers hash to a home shard, so concurrent solves
	// mostly hit disjoint locks.
	numShards = 8
	// slotsPerClass bounds the idle buffers one shard retains per size
	// class; across shards a class retains at most
	// numShards*slotsPerClass buffers regardless of the byte limit.
	slotsPerClass = 4
)

// defaultRetainLimit is the steady-state cap on idle pooled bytes. Put
// stops retaining at twice this value; trim points bring retention back
// under it.
const defaultRetainLimit = 512 << 20

type classList struct {
	bufs [slotsPerClass][]float64
	n    int
}

type shard struct {
	mu      sync.Mutex
	classes [maxClass + 1]classList
	_       [64]byte // keep shards off each other's cache lines
}

var shards [numShards]shard

// inUse is the accountant: bytes of size-class capacity checked out by Get
// and not yet returned by Put (InUseBytes).
var inUse atomic.Int64

// retained is the idle bytes currently parked in the freelists (exact:
// updated under the owning shard's lock as buffers enter and leave).
var retained atomic.Int64

// retainLimit is the target ceiling for retained bytes. Put refuses to
// retain beyond 2*retainLimit (transient mid-solve overshoot is allowed up
// to that hard ceiling); TrimToCap — wired into task-runtime shutdown —
// brings retention back to the limit, and idle servers trim to zero. It is
// always defaultRetainLimit outside this package's tests, which lower it.
var retainLimit atomic.Int64

func init() { retainLimit.Store(defaultRetainLimit) }

// counters are diagnostic tallies surfaced by Counters; they are separate
// atomics so the accountant itself stays a single counter.
var (
	cGets        atomic.Int64
	cHits        atomic.Int64
	cSteals      atomic.Int64
	cPuts        atomic.Int64
	cDroppedCap  atomic.Int64
	cForeignPuts atomic.Int64
	cDoublePuts  atomic.Int64
	cTrimmed     atomic.Int64
)

// stripeOf picks the calling goroutine's home shard by hashing its stack
// address: goroutine stacks are distinct memory blocks, so the high bits of
// a local's address are a stable, allocation-free goroutine fingerprint
// (stable until the stack moves, which is rare and only re-homes the
// goroutine to another valid shard).
func stripeOf() int {
	var marker byte
	return int(uintptr(unsafe.Pointer(&marker))>>14) & (numShards - 1)
}

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
	home := stripeOf()
	if s := shards[home].pop(c); s != nil {
		cHits.Add(1)
		debugOnGet(s)
		return s[:n]
	}
	// Local miss: steal from sibling shards before paying an allocation.
	for i := 1; i < numShards; i++ {
		if s := shards[(home+i)&(numShards-1)].pop(c); s != nil {
			cSteals.Add(1)
			debugOnGet(s)
			return s[:n]
		}
	}
	s := make([]float64, n, 1<<c)
	debugOnGet(s[:cap(s)])
	return s
}

func (sh *shard) pop(c int) []float64 {
	sh.mu.Lock()
	cl := &sh.classes[c]
	if cl.n == 0 {
		sh.mu.Unlock()
		return nil
	}
	cl.n--
	s := cl.bufs[cl.n]
	cl.bufs[cl.n] = nil
	sh.mu.Unlock()
	retained.Add(-int64(8) << c)
	return s
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
	home := stripeOf()
	// Immediate double Put lands in the same home shard while the first
	// copy is still idle there: detect it before corrupting the accountant
	// a second time.
	if shards[home].contains(cls, s) {
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
	// Retain only within the hard ceiling; beyond it the buffer goes to
	// the GC (the checkout itself was already credited above).
	if retained.Load()+bytes > 2*retainLimit.Load() {
		cDroppedCap.Add(1)
		return
	}
	if !shards[home].push(cls, s) {
		cDroppedCap.Add(1)
	}
}

func (sh *shard) contains(c int, s []float64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cl := &sh.classes[c]
	for i := 0; i < cl.n; i++ {
		if &cl.bufs[i][0] == &s[0] {
			return true
		}
	}
	return false
}

func (sh *shard) push(c int, s []float64) bool {
	sh.mu.Lock()
	cl := &sh.classes[c]
	if cl.n == slotsPerClass {
		sh.mu.Unlock()
		return false
	}
	cl.bufs[cl.n] = s
	cl.n++
	sh.mu.Unlock()
	retained.Add(int64(8) << c)
	return true
}

// InUseBytes returns the pooled bytes currently checked out: everything Get
// charged minus everything Put credited back.
func InUseBytes() int64 { return inUse.Load() }

// RetainedBytes returns the idle bytes currently parked in the freelists,
// waiting for reuse. InUseBytes + RetainedBytes is the pool's total claim
// on the heap.
func RetainedBytes() int64 { return retained.Load() }

// Trim drops idle buffers, largest classes first, until RetainedBytes is at
// most target. It returns the bytes released. Checked-out buffers are
// untouched; concurrent Get/Put remain safe.
func Trim(target int64) int64 {
	if target < 0 {
		target = 0
	}
	var freed int64
	for c := maxClass; c >= 0 && retained.Load() > target; c-- {
		for i := range shards {
			sh := &shards[i]
			sh.mu.Lock()
			cl := &sh.classes[c]
			for cl.n > 0 && retained.Load() > target {
				cl.n--
				cl.bufs[cl.n] = nil
				b := int64(8) << c
				retained.Add(-b)
				freed += b
			}
			sh.mu.Unlock()
		}
	}
	if freed > 0 {
		cTrimmed.Add(freed)
	}
	return freed
}

// TrimAll drops every idle buffer, returning the bytes released. Idle
// servers call this so a quiet process holds no pooled memory at all.
func TrimAll() int64 { return Trim(0) }

// TrimToCap brings retention back under the configured retain limit. It is
// the solve-completion trim point: the task runtime calls it on shutdown so
// transient mid-solve overshoot never outlives the solve.
func TrimToCap() int64 { return Trim(retainLimit.Load()) }

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
	RetainLimit   int64 // configured retention target
	Gets          int64 // Get calls served from a size class
	Hits          int64 // Gets satisfied by the home shard
	Steals        int64 // Gets satisfied by a sibling shard
	Puts          int64 // accepted Put calls
	DroppedCap    int64 // Puts dropped by slot or byte caps
	ForeignPuts   int64 // Puts whose credit would go negative (clamped)
	DoublePuts    int64 // Puts of a buffer already idle in its shard
	TrimmedBytes  int64 // cumulative bytes released by Trim
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
		Steals:        cSteals.Load(),
		Puts:          cPuts.Load(),
		DroppedCap:    cDroppedCap.Load(),
		ForeignPuts:   cForeignPuts.Load(),
		DoublePuts:    cDoublePuts.Load(),
		TrimmedBytes:  cTrimmed.Load(),
	}
}
