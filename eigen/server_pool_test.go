package eigen

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tridiag/internal/pool"
)

// TestServerIdleTrimReleasesPool drives a few solves through a server with a
// short idle-trim delay and asserts that a quiet server eventually holds no
// pooled scratch at all: the idle timer fires once no job is queued or
// running and drops every retained buffer.
func TestServerIdleTrimReleasesPool(t *testing.T) {
	s := NewServer(ServerConfig{MaxConcurrent: 2, PoolIdleTrimDelay: 50 * time.Millisecond})
	rng := rand.New(rand.NewSource(99))
	tri := randomTridiag(rng, 400)
	for i := 0; i < 3; i++ {
		if _, err := s.Solve(context.Background(), tri, &Options{Workers: 2, MinPartition: 32}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.RetainedBytes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle trim never fired: %d bytes still retained", pool.RetainedBytes())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := pool.RetainedBytes(); got != 0 {
		t.Fatalf("drained server retains %d bytes of scratch", got)
	}
}

// TestServerBusyKeepsPoolWarm asserts the opposite direction: back-to-back
// solves must not lose their warm buffers to the idle trimmer (the timer is
// disarmed while work is queued or running) or to the pool's own retention
// rule, so steady traffic is served from the freelists. A solve's panel
// tasks return buffers on whichever worker finishes last, and an
// occasional solve still allocates when its schedule holds more buffers of
// one class at once than any solve before it; the median over repeated
// identical solves is the steady state.
func TestServerBusyKeepsPoolWarm(t *testing.T) {
	s := NewServer(ServerConfig{MaxConcurrent: 1, PoolIdleTrimDelay: time.Hour})
	defer s.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(100))
	tri := randomTridiag(rng, 400)
	solve := func() (gets, fresh int64) {
		before := pool.Counters()
		if _, err := s.Solve(context.Background(), tri, &Options{Workers: 2, MinPartition: 32}); err != nil {
			t.Fatal(err)
		}
		after := pool.Counters()
		gets = after.Gets - before.Gets
		return gets, gets - (after.Hits - before.Hits)
	}
	solve() // warm-up
	const reps = 20
	fresh := make([]int64, reps)
	var gets int64
	for i := range fresh {
		gets, fresh[i] = solve()
	}
	sorted := slices.Clone(fresh)
	slices.Sort(sorted)
	if med := sorted[reps/2]; med > gets/20 {
		t.Errorf("median solve allocated %d of %d pooled Gets (bound %d); per solve: %v", med, gets, gets/20, fresh)
	}
}
