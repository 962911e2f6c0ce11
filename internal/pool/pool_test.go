package pool

import "testing"

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
	target := ret / 2
	Trim(target)
	if got := RetainedBytes(); got > target {
		t.Fatalf("Trim(%d) left %d retained", target, got)
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
}

func TestTrimToCap(t *testing.T) {
	prev := retainLimit.Swap(4 * 8 << 10) // four class-1024 buffers
	defer retainLimit.Store(prev)
	TrimAll()
	bufs := make([][]float64, 8)
	for i := range bufs {
		bufs[i] = Get(1 << 10)
	}
	for _, b := range bufs {
		Put(b)
	}
	TrimToCap()
	if got, lim := RetainedBytes(), retainLimit.Load(); got > lim {
		t.Fatalf("TrimToCap left %d retained, limit %d", got, lim)
	}
	TrimAll()
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
