package quark

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestPreCancelledContextRunsNothing: a runtime bound to an already-cancelled
// context must never execute a task — Wait returns ctx.Err() and every
// submitted task is marked Canceled.
func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := New(4, WithContext(ctx), WithGraphCapture())
	defer rt.Shutdown()

	var ran atomic.Int64
	h := rt.Handle("h")
	for i := 0; i < 50; i++ {
		rt.Submit("T", "t", func() { ran.Add(1) }, ReadWrite(h))
	}
	err := rt.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d tasks ran on a pre-cancelled runtime", got)
	}
	rt.Shutdown()
	for _, ti := range rt.Graph().Tasks {
		if !ti.Canceled {
			t.Errorf("task %d not marked Canceled", ti.ID)
		}
		if ti.Worker >= 0 {
			t.Errorf("task %d executed on worker %d", ti.ID, ti.Worker)
		}
	}
}

// TestMidRunCancellationSkipsPending: cancelling while a task runs lets that
// kernel finish, skips everything still pending, and wakes Wait with
// ctx.Err() instead of draining the DAG first.
func TestMidRunCancellationSkipsPending(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := New(2, WithContext(ctx), WithGraphCapture())
	defer rt.Shutdown()

	block := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int64
	h := rt.Handle("h")
	rt.Submit("Head", "head", func() {
		close(started)
		<-block
		ran.Add(1)
	}, ReadWrite(h))
	for i := 0; i < 100; i++ {
		rt.Submit("Chain", "link", func() { ran.Add(1) }, ReadWrite(h))
	}

	<-started
	cancel()
	// Wait must return even though the head task is still blocked inside its
	// kernel and 100 successors are pending.
	waitDone := make(chan error, 1)
	go func() { waitDone <- rt.Wait() }()
	select {
	case err := <-waitDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after cancellation")
	}
	close(block) // let the in-flight kernel finish; Shutdown drains the rest
	rt.Shutdown()
	if got := ran.Load(); got != 1 {
		t.Errorf("%d tasks ran, want only the in-flight head", got)
	}
	canceled := 0
	for _, ti := range rt.Graph().Tasks {
		if ti.Canceled {
			canceled++
		}
	}
	if canceled != 100 {
		t.Errorf("%d tasks marked Canceled, want all 100 pending", canceled)
	}
}

// TestDeadlineAborts: a deadline expiry behaves like a cancellation and
// reports context.DeadlineExceeded.
func TestDeadlineAborts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rt := New(2, WithContext(ctx))
	defer rt.Shutdown()

	h := rt.Handle("h")
	for i := 0; i < 1000; i++ {
		rt.Submit("Slow", "slow", func() { time.Sleep(time.Millisecond) }, ReadWrite(h))
	}
	err := rt.Wait()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait: %v, want context.DeadlineExceeded", err)
	}
}

// TestTaskFailureBeatsLateCancellation: a genuine task failure observed
// before the cancellation stays the root cause reported by Wait.
func TestTaskFailureBeatsLateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := New(2, WithContext(ctx))
	defer rt.Shutdown()

	h := rt.Handle("h")
	rt.Submit("Boom", "boom", func() { panic("kernel bug") }, ReadWrite(h))
	if err := rt.Wait(); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: %v, want the task failure", err)
	}
	cancel()
	if err := rt.Wait(); errors.Is(err, context.Canceled) {
		t.Errorf("late cancellation masked the root-cause failure: %v", err)
	}
}

// TestCancelledRuntimeSubmitSkips: tasks submitted after the cancellation
// are skipped immediately, keeping Submit safe for a master mid-submission.
func TestCancelledRuntimeSubmitSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := New(2, WithContext(ctx))
	defer rt.Shutdown()
	cancel()
	// The watcher goroutine observes the cancel asynchronously; an empty
	// runtime's Wait returns nil until then, so poll for the abort.
	deadline := time.After(2 * time.Second)
	for {
		if err := rt.Wait(); errors.Is(err, context.Canceled) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("cancellation never observed")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	var ran atomic.Int64
	rt.Submit("Late", "late", func() { ran.Add(1) })
	rt.Shutdown()
	if ran.Load() != 0 {
		t.Error("task submitted after cancellation ran")
	}
}

// TestCancellationBeforeNextTask: a kernel that cancels the runtime's context
// is the last kernel to run. The worker that finishes it must not start a
// successor before the context watcher goroutine gets to run.
func TestCancellationBeforeNextTask(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for rep := 0; rep < 100; rep++ {
			ctx, cancel := context.WithCancel(context.Background())
			rt := New(workers, WithContext(ctx))
			var later atomic.Int64
			h := rt.Handle("h")
			rt.Submit("Cancel", "cancel", cancel, ReadWrite(h))
			for i := 0; i < 20; i++ {
				rt.Submit("Chain", "link", func() { later.Add(1) }, ReadWrite(h))
			}
			err := rt.Wait()
			rt.Shutdown()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("W=%d rep %d: Wait: %v, want context.Canceled", workers, rep, err)
			}
			if n := later.Load(); n != 0 {
				t.Fatalf("W=%d rep %d: %d tasks ran after their predecessor cancelled the context", workers, rep, n)
			}
		}
	}
}
