package resilience

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// expire ends a breaker's cooldown now, so the tests never sleep through one.
func expire(b *Breaker) {
	b.mu.Lock()
	b.openUntil = time.Now()
	b.mu.Unlock()
}

func wantState(t *testing.T, b *Breaker, want State) {
	t.Helper()
	if got := b.State(); got != want {
		t.Fatalf("state %v, want %v", got, want)
	}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := NewBreaker(3, time.Hour)
	for i := 1; i < 3; i++ {
		if b.Failure() {
			t.Fatalf("failure %d opened the circuit below the threshold", i)
		}
		wantState(t, b, Closed)
	}
	if !b.Failure() {
		t.Fatal("third failure did not open the circuit")
	}
	wantState(t, b, Open)
	if b.Failure() {
		t.Error("a failure while open reported opening again")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := NewBreaker(2, time.Hour)
	b.Failure()
	if b.Success() {
		t.Error("Success on a closed circuit reported closing it")
	}
	if b.Failure() {
		t.Error("the count survived a success")
	}
	wantState(t, b, Closed)
}

func TestBreakerNoProbeBeforeCooldown(t *testing.T) {
	b := NewBreaker(1, time.Hour)
	if b.Probe() {
		t.Fatal("a closed circuit granted a probe")
	}
	b.Failure()
	if b.Probe() {
		t.Fatal("an open circuit granted a probe before its cooldown expired")
	}
	expire(b)
	wantState(t, b, HalfOpen)
	if !b.Probe() {
		t.Fatal("no probe after the cooldown")
	}
}

func TestBreakerOneProbeWins(t *testing.T) {
	b := NewBreaker(1, time.Hour)
	b.Failure()
	expire(b)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Probe() {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := wins.Load(); got != 1 {
		t.Fatalf("%d of 32 concurrent callers won the probe, want 1", got)
	}
}

func TestBreakerSuccessCloses(t *testing.T) {
	b := NewBreaker(1, time.Hour)
	b.Failure()
	expire(b)
	b.Probe()
	if !b.Success() {
		t.Error("Success on an open circuit did not report closing it")
	}
	wantState(t, b, Closed)
	if b.Probe() {
		t.Error("a closed circuit granted a probe")
	}
}

func TestBreakerFailureWhileOpenRearms(t *testing.T) {
	b := NewBreaker(1, time.Hour)
	b.Failure()
	expire(b)
	if !b.Probe() {
		t.Fatal("no probe after the cooldown")
	}
	b.Failure() // the probe failed
	wantState(t, b, Open)
	if b.Probe() {
		t.Fatal("a re-armed circuit granted a probe before its new cooldown")
	}
	expire(b)
	if !b.Probe() {
		t.Fatal("the failed probe was not freed")
	}
}

func TestBreakerReleaseFreesProbe(t *testing.T) {
	b := NewBreaker(1, time.Hour)
	b.Failure()
	expire(b)
	if !b.Probe() {
		t.Fatal("no probe after the cooldown")
	}
	if b.Probe() {
		t.Fatal("a second probe while the first is in flight")
	}
	b.Release()
	wantState(t, b, HalfOpen)
	if !b.Probe() {
		t.Fatal("Release did not free the probe")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestBackoffDelayBand(t *testing.T) {
	const base = 10 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; attempt <= 8; attempt++ {
		d := base << min(attempt-1, 4)
		for i := 0; i < 200; i++ {
			if got := delay(base, rng, attempt); got < d/2 || got > d {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
	if got := delay(base, rng, 100); got > 16*base {
		t.Errorf("delay %v exceeds the 16×base cap", got)
	}
}

func TestBackoff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if !Backoff(context.Background(), time.Microsecond, rng, 1) {
		t.Error("Backoff on a live context returned false")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if Backoff(ctx, time.Hour, rng, 1) {
		t.Error("Backoff on a cancelled context returned true")
	}
	if time.Since(start) > time.Second {
		t.Error("Backoff slept despite a cancelled context")
	}
}

func TestDrain(t *testing.T) {
	release := make(chan struct{})
	if err := Drain(context.Background(), func() {}, func() { t.Error("cancel on a finished drain") }); err != nil {
		t.Errorf("finished drain: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := Drain(ctx, func() { <-release }, func() { close(release) })
	if err != context.DeadlineExceeded {
		t.Errorf("deadline drain: %v, want DeadlineExceeded", err)
	}
}
