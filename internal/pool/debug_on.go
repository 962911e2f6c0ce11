//go:build pooldebug

package pool

import (
	"fmt"
	"sync"
	"unsafe"
)

// With the pooldebug build tag the pool keeps an ownership map keyed by the
// backing array address: Get marks a buffer checked out, Put marks it
// returned, and any Put of a buffer that is not currently checked out —
// a foreign slice or a second Put — panics at the violation site instead of
// silently corrupting the accountant. The map also survives buffers the
// release path would drop, so violations are caught regardless of caps.
//
// Address reuse caveat: once a buffer is dropped to the GC its address may
// be recycled by an unrelated allocation; the map is advisory for such
// dead entries. In practice violations are caught while the buffer is
// still live, which is when they matter.

var (
	ownMu sync.Mutex
	// owned maps backing-array address → checked out (true) or idle/
	// returned (false).
	owned = map[uintptr]bool{}
)

func keyOf(s []float64) uintptr {
	return uintptr(unsafe.Pointer(&s[0]))
}

func debugOnGet(s []float64) {
	ownMu.Lock()
	owned[keyOf(s)] = true
	ownMu.Unlock()
}

func debugOnPut(s []float64) {
	k := keyOf(s)
	ownMu.Lock()
	out, known := owned[k]
	if known {
		owned[k] = false
	}
	ownMu.Unlock()
	if !known {
		panic(fmt.Sprintf("pool: Put of foreign slice (cap %d) never obtained from Get", cap(s)))
	}
	if !out {
		panic(fmt.Sprintf("pool: double Put of slice (cap %d)", cap(s)))
	}
}

func debugOnDoublePut(s []float64) {
	panic(fmt.Sprintf("pool: double Put of slice (cap %d) still idle in the pool", cap(s)))
}
