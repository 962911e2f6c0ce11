// Package resilience is the failure policy both serving tiers share:
// eigen.Server keeps one Breaker per failure class and cluster.Coordinator
// one per worker, both retry through Backoff, and both drain through Drain.
// See DESIGN.md §11 ("Resilience policy").
package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// State is a circuit's position in the closed → open → half-open cycle.
type State int

const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed State = iota
	// Open: the threshold was reached and the cooldown is running.
	Open
	// HalfOpen: the cooldown has expired; one probe may test the circuit.
	HalfOpen
)

func (s State) String() string { return [...]string{"closed", "open", "half-open"}[s] }

// Breaker is one circuit. It is closed until threshold consecutive failures
// open it. Once the cooldown has expired, one caller may claim the half-open
// probe; Success closes the circuit, and a Failure while open re-arms the
// cooldown (a failed probe, or a racing attempt that started while closed).
// A probe that ends without a verdict, such as a cancelled job, must call
// Release so the next caller can probe. A Breaker is safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int // consecutive failures while closed
	open      bool
	openUntil time.Time
	probing   bool
}

// NewBreaker returns a closed circuit.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// State reports the circuit's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

func (b *Breaker) stateLocked() State {
	switch {
	case !b.open:
		return Closed
	case time.Now().Before(b.openUntil):
		return Open
	}
	return HalfOpen
}

// Probe claims the half-open probe: true for exactly one caller once the
// cooldown has expired, until that caller reports Success, Failure or
// Release.
func (b *Breaker) Probe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing || b.stateLocked() != HalfOpen {
		return false
	}
	b.probing = true
	return true
}

// Release frees a claimed probe that ended without a verdict; the circuit
// stays open and the next caller may probe at once.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Success closes the circuit and resets the failure count. It reports
// whether the circuit was open.
func (b *Breaker) Success() (closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	closed = b.open
	b.open, b.probing, b.fails = false, false, 0
	return closed
}

// Failure records one failure and reports whether it opened the circuit.
// While the circuit is open it re-arms the cooldown and frees the probe
// instead of counting.
func (b *Breaker) Failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		b.fails++
		if b.fails < b.threshold {
			return false
		}
		b.open, opened = true, true
	}
	b.probing = false
	b.openUntil = time.Now().Add(b.cooldown)
	return opened
}

// Backoff sleeps before retry number attempt (1-based): base·2^(attempt−1),
// capped at 16×base, jittered down by up to half from rng. It returns false
// if ctx fires first.
func Backoff(ctx context.Context, base time.Duration, rng *rand.Rand, attempt int) bool {
	tm := time.NewTimer(delay(base, rng, attempt))
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// delay is Backoff's wait: uniform in [d/2, d] for d = base·2^(attempt−1)
// capped at 16×base.
func delay(base time.Duration, rng *rand.Rand, attempt int) time.Duration {
	d := base << uint(min(attempt-1, 4))
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// Drain waits for wait to return, which it does once every in-flight job
// has finished. If ctx fires first, Drain calls cancel, which must make
// every job finish promptly, waits again and returns ctx.Err().
func Drain(ctx context.Context, wait, cancel func()) error {
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		cancel()
		<-done
		return ctx.Err()
	}
}
