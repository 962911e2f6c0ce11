//go:build !pooldebug

package pool

import "testing"

// These tests exercise the release-build defence (clamp-and-count); under
// the pooldebug tag the same violations panic instead — see
// debug_on_test.go.

func TestForeignPutClampAndCount(t *testing.T) {
	TrimAll()
	// A foreign Put while nothing is checked out would drive the old
	// implementation negative.
	if InUseBytes() > 0 {
		t.Skip("other checkouts in flight; clamp not provable")
	}
	before := Counters()
	Put(make([]float64, 128)) // power-of-two cap, never from Get
	after := Counters()
	if got := InUseBytes(); got < 0 {
		t.Fatalf("InUseBytes went negative after foreign Put: %d", got)
	}
	if after.ForeignPuts != before.ForeignPuts+1 {
		t.Fatalf("ForeignPuts = %d, want %d", after.ForeignPuts, before.ForeignPuts+1)
	}
	if after.RetainedBytes != before.RetainedBytes {
		t.Fatalf("foreign slice was retained: %d -> %d", before.RetainedBytes, after.RetainedBytes)
	}
}

// TestDoublePutDetected makes the second Put from the same goroutine and
// from another one: either way it is counted once and the accountant is
// credited once.
func TestDoublePutDetected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		second func(s []float64)
	}{
		{"same goroutine", func(s []float64) { Put(s) }},
		{"other goroutine", func(s []float64) {
			done := make(chan struct{})
			go func() { Put(s); close(done) }()
			<-done
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			TrimAll()
			s := Get(256)
			hold := Get(256) // keep the accountant above one class so no clamp fires
			defer Put(hold)
			before := Counters()
			base := InUseBytes()
			Put(s)
			tc.second(s) // contract violation: same buffer again
			after := Counters()
			if after.DoublePuts != before.DoublePuts+1 {
				t.Fatalf("DoublePuts = %d, want %d", after.DoublePuts, before.DoublePuts+1)
			}
			if got := base - InUseBytes(); got != 2048 {
				t.Fatalf("double Put credited the accountant twice: released %d bytes, want 2048", got)
			}
			TrimAll()
		})
	}
}
