// Package faultinject provides per-task-kind fault probes for chaos testing
// the task-flow pipeline: a registered plan can make tasks of a given kernel
// class panic, fail with a forced error, or stall for a configured delay,
// each with an independent probability.
//
// The package is a registry, not a build flavour: probes are compiled into
// every binary but cost exactly one atomic load per task while disabled
// (the default), so the production hot path is untouched. Tests enable a
// plan with a deterministic seed, run the pipeline, and assert that the
// resilience machinery (task cancellation, numerical fallbacks, solver tier
// degradation) turns every injected fault into either a verified-correct
// result or a clean root-cause error.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the failure mode a probe injects.
type Kind int

const (
	// KindPanic makes the task panic, as a latent kernel bug would.
	KindPanic Kind = iota
	// KindError makes the task fail with a forced error, as a numerical
	// breakdown (non-convergence, singular pivot) would.
	KindError
	// KindDelay stalls the task, as a descheduled or page-faulting worker
	// would; it exercises timeout/cancellation paths without failing.
	KindDelay
	// KindCorrupt silently flips a high exponent bit of one output element,
	// as a DRAM bit flip or a buggy SIMD lane would: the task *succeeds* and
	// hands plausible-looking wrong data downstream. Unlike the fail-stop
	// kinds, KindCorrupt probes are not consulted by Fire/FireCtx before the
	// kernel; kernels (or their submitting task bodies) call Corrupt on their
	// output buffer after computing it, so the flip lands where the ABFT
	// checksums and merge invariants must catch it.
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected marks a forced task failure so tests can tell injected faults
// from genuine numerical errors.
type ErrInjected struct {
	Class string
	Mode  Kind
}

func (e *ErrInjected) Error() string {
	return fmt.Sprintf("faultinject: forced %v in task class %q", e.Mode, e.Class)
}

// TaskClass returns the kernel class the fault was injected into, so
// ClassOf can attribute a failure without importing the runtime package.
func (e *ErrInjected) TaskClass() string { return e.Class }

// Transient reports true: injected faults model environmental failures
// (descheduled worker, flipped bit, spurious kernel error) that a retry on
// the same tier is expected to clear.
func (e *ErrInjected) Transient() bool { return true }

// NetClassPrefix prefixes the probe classes of the cluster tier's network
// paths (see NetClass); arming them simulates partitions and slow links
// between a coordinator and its workers.
const NetClassPrefix = "net:"

// NetClass returns the probe class of the coordinator→worker network path
// for the given worker name. eigen/cluster consults it before every request
// it sends to that worker — solve forwards and health probes alike — so a
// KindError probe behaves like a network partition (the injected error
// surfaces as a transient transport failure, trips the worker's circuit
// breaker and triggers failover) and a KindDelay probe like a slow or lossy
// link. Task-kernel wildcard plans ("*") also match these classes, which
// extends whole-pipeline chaos runs across the cluster hop.
func NetClass(worker string) string { return NetClassPrefix + worker }

// Probe arms one task class with one failure mode.
type Probe struct {
	// Class is the task kernel class the probe fires on ("LAED4",
	// "STEDC", ...); "*" matches every class.
	Class string
	// Kind is the injected failure mode.
	Kind Kind
	// P is the per-task firing probability in [0, 1].
	P float64
	// Delay is the stall duration for KindDelay probes.
	Delay time.Duration
	// MaxFires, when positive, caps how many times this probe fires; after
	// the cap it is inert. A P=1/MaxFires=1 probe is a deterministic
	// single-shot fault: exactly one task of the class fails, the rest run
	// clean.
	MaxFires int64
}

type registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	probes []Probe
	fired  map[string]int64
	fires  []int64 // per-probe fire counts, parallel to probes (MaxFires)
}

var (
	active atomic.Bool
	reg    registry
)

// Enable arms the given probes with a deterministic seed. It replaces any
// previous plan. Probes fire until Disable is called.
func Enable(seed int64, probes ...Probe) {
	reg.mu.Lock()
	reg.rng = rand.New(rand.NewSource(seed))
	reg.probes = append([]Probe(nil), probes...)
	reg.fired = make(map[string]int64)
	reg.fires = make([]int64, len(probes))
	reg.mu.Unlock()
	active.Store(len(probes) > 0)
}

// Disable disarms all probes; Active returns to false and Fire becomes a
// no-op again.
func Disable() {
	active.Store(false)
	reg.mu.Lock()
	reg.probes = nil
	reg.mu.Unlock()
}

// Active reports whether any probe is armed. This is the only call on the
// disabled fast path: a single atomic load.
func Active() bool { return active.Load() }

// Fired returns how many times probes fired per class since Enable.
func Fired() map[string]int64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[string]int64, len(reg.fired))
	for c, n := range reg.fired {
		out[c] = n
	}
	return out
}

// Fire consults the armed plan for the given task class: it sleeps for
// KindDelay probes, returns an *ErrInjected for KindError probes, and panics
// for KindPanic probes. Callers (the quark runtime) invoke it only when
// Active() is true, immediately before running a task's kernel.
func Fire(class string) error { return FireCtx(context.Background(), class) }

// FireCtx is Fire bounded by a context: an injected delay ends as soon as
// ctx is cancelled, so a stalled task can never outlive a cancelled solve —
// the worker running it unblocks within the cancellation, not within the
// configured delay. A nil ctx behaves like context.Background().
func FireCtx(ctx context.Context, class string) error {
	var hit *Probe
	reg.mu.Lock()
	for i := range reg.probes {
		p := &reg.probes[i]
		if p.Kind == KindCorrupt {
			continue // consulted by Corrupt at the kernel's output, not here
		}
		if p.Class != "*" && p.Class != class {
			continue
		}
		if p.MaxFires > 0 && reg.fires[i] >= p.MaxFires {
			continue
		}
		if reg.rng.Float64() < p.P {
			hit = p
			reg.fired[class]++
			reg.fires[i]++
			break
		}
	}
	reg.mu.Unlock()
	if hit == nil {
		return nil
	}
	switch hit.Kind {
	case KindDelay:
		if ctx == nil {
			ctx = context.Background()
		}
		if ctx.Done() == nil {
			time.Sleep(hit.Delay)
			return nil
		}
		t := time.NewTimer(hit.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		return nil
	case KindError:
		return &ErrInjected{Class: class, Mode: KindError}
	default:
		panic(&ErrInjected{Class: class, Mode: KindPanic})
	}
}

// Corrupt consults the armed plan for a KindCorrupt probe on the given task
// class and, when one fires, silently flips exponent bit 57 of the
// largest-magnitude element of data (multiplying it by 2^32 while keeping it
// finite — a massive, detectable, deterministic corruption). Kernels call it
// on their output buffer after computing it, guarded by Active(); probes of
// other kinds never fire here. Returns whether a flip was applied. A buffer
// of all zeros is left untouched (flipping a zero's exponent still yields
// zero, so there is nothing meaningful to corrupt).
func Corrupt(class string, data []float64) bool {
	if len(data) == 0 {
		return false
	}
	var hit bool
	reg.mu.Lock()
	for i := range reg.probes {
		p := &reg.probes[i]
		if p.Kind != KindCorrupt {
			continue
		}
		if p.Class != "*" && p.Class != class {
			continue
		}
		if p.MaxFires > 0 && reg.fires[i] >= p.MaxFires {
			continue
		}
		if reg.rng.Float64() < p.P {
			hit = true
			reg.fired[class]++
			reg.fires[i]++
			break
		}
	}
	reg.mu.Unlock()
	if !hit {
		return false
	}
	arg, mx := -1, 0.0
	for i, v := range data {
		if a := math.Abs(v); a > mx {
			arg, mx = i, a
		}
	}
	if arg < 0 {
		return false
	}
	data[arg] = math.Float64frombits(math.Float64bits(data[arg]) ^ (1 << 57))
	return true
}

// Transient classifies an error for retry policy: it reports whether the
// chain contains a transient environmental fault — an injected fault, or any
// error exposing `Transient() bool` as true (e.g. a watchdog stall abort) —
// as opposed to a persistent numerical failure (non-convergence, validation
// miss), which a same-tier retry will just reproduce and which should
// degrade to a more conservative tier instead.
func Transient(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if t, ok := e.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
	}
	return false
}

// Corruption reports whether the chain contains a silent-data-corruption
// detection — any error exposing `Corruption() bool` as true (an ABFT
// checksum mismatch, a violated merge invariant, a failed result audit).
// Corruption errors are also Transient (a recompute is expected to clear
// them), but callers that want to count detected corruptions separately from
// ordinary environmental faults key on this.
func Corruption(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if c, ok := e.(interface{ Corruption() bool }); ok && c.Corruption() {
			return true
		}
	}
	return false
}

// ClassOf returns the task kernel class a failure is attributed to, or ""
// when the chain carries no class. Both the runtime's task-failure wrapper
// and ErrInjected expose `TaskClass() string`; circuit breakers key on this.
func ClassOf(err error) string {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if c, ok := e.(interface{ TaskClass() string }); ok {
			return c.TaskClass()
		}
	}
	return ""
}
