package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := tailSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := iqr(xs); got != 2 {
		t.Errorf("iqr = %v, want 2", got)
	}
}

// TestOpenLoopLatencyFromDue: a request the generator sends late is charged
// the wait from its due time, and the lateness is reported as generator lag.
func TestOpenLoopLatencyFromDue(t *testing.T) {
	s := openSample{due: 10 * time.Millisecond, sent: 60 * time.Millisecond, done: 70 * time.Millisecond}
	if s.latency() != 60*time.Millisecond {
		t.Errorf("latency = %v, want 60ms (service 10ms plus the 50ms stall)", s.latency())
	}
	if s.lag() != 50*time.Millisecond {
		t.Errorf("lag = %v, want 50ms", s.lag())
	}

	a := poissonSchedule(rand.New(rand.NewSource(1)), 25, 200*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(1)), 25, 200*time.Second)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatalf("the same seed gave different schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if a[len(a)-1] >= 200*time.Second {
		t.Errorf("arrival %v beyond the horizon", a[len(a)-1])
	}
	if rate := float64(len(a)) / 200; math.Abs(rate-25) > 2 {
		t.Errorf("offered rate %.2f/s, want about 25/s", rate)
	}
}

// TestTimedCallExcludesVerifierCPU: CPU time is read immediately around the
// timed call, so the verification that follows it is charged to neither
// clock, however much CPU it burns.
func TestTimedCallExcludesVerifierCPU(t *testing.T) {
	burn := func(d time.Duration) {
		c0 := processCPU()
		x := 1.0
		for processCPU()-c0 < d {
			for i := 0; i < 1000; i++ {
				x = math.Sqrt(x + 1)
			}
		}
	}
	var callCPU, callWall time.Duration
	total0 := processCPU()
	for i := 0; i < 3; i++ {
		wall, cpu, err := timedCall(func() error {
			time.Sleep(10 * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		callCPU += cpu
		callWall += wall
		burn(40 * time.Millisecond) // the verifier
	}
	total := processCPU() - total0
	if total < 120*time.Millisecond {
		t.Fatalf("process used only %v; the verifier did not run", total)
	}
	if callCPU > 30*time.Millisecond {
		t.Errorf("timed calls were charged %v of CPU; a sleeping call uses almost none", callCPU)
	}
	if callWall < 30*time.Millisecond {
		t.Errorf("timed calls took %v of wall time, want at least the 30ms they slept", callWall)
	}
	_, cpu, _ := timedCall(func() error {
		burn(30 * time.Millisecond)
		return nil
	})
	if cpu < 25*time.Millisecond {
		t.Errorf("a call that burns 30ms of CPU was charged %v", cpu)
	}
}
