package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"tridiag/eigen"
)

// AuditPoint is one worker count's silent-error-defense cost measurement.
// The acceptance comparison is OnMedianMS (shipping default: ABFT plus the
// result audit) against OffMedianMS (audit disabled, ABFT still on) — the
// "always-on audit overhead" bar is ≤5%. BareMedianMS additionally switches
// the ABFT checksums and merge invariants off, so On vs Bare is the cost of
// the entire silent-error defense.
type AuditPoint struct {
	Workers      int     `json:"workers"`
	OnMedianMS   float64 `json:"audit_on_median_ms"`
	OffMedianMS  float64 `json:"audit_off_median_ms"`
	BareMedianMS float64 `json:"bare_median_ms"`
	OverheadPct  float64 `json:"overhead_pct"`
	DefensePct   float64 `json:"defense_pct"`
}

// AuditRecord is the machine-readable output of `dcbench audit`: the
// defense-overhead points plus the count of defended solves whose served
// result carried the Audited flag (so the record proves the defense was
// actually live, not silently disabled, when the overhead was measured).
type AuditRecord struct {
	N       int          `json:"n"`
	Reps    int          `json:"reps"`
	Audited int          `json:"audited_solves"`
	Points  []AuditPoint `json:"points"`
}

// Audit measures what the always-on result audit costs on the paper's
// task-flow acceptance point (n=2000 random tridiagonal, medians over reps,
// workers 1/4/8): round-robin audited/audit-disabled/bare solves of the
// same matrix, so allocator and frequency drift hit every column equally.
// The acceptance bar is audit overhead ≤ 5% at every worker count.
func Audit(cfg *Config) (*AuditRecord, error) {
	n := 2000
	reps := 9
	if cfg.Quick {
		n, reps = 500, 3
	}
	if len(cfg.Sizes) > 0 {
		n = cfg.Sizes[0]
	}
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 4, 8}
	}

	rng := rand.New(rand.NewSource(cfg.seed()))
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	tri := eigen.Tridiagonal{D: d, E: e}

	rec := &AuditRecord{N: n, Reps: reps}
	fmt.Fprintf(cfg.out(), "silent-error defense overhead, n=%d, median of %d:\n", n, reps)
	for _, w := range workers {
		// Warm the scratch pools at this worker count so the first timed
		// column doesn't absorb the allocation spike.
		if _, err := eigen.Solve(tri, &eigen.Options{Workers: w}); err != nil {
			return nil, fmt.Errorf("audit bench n=%d w=%d (warmup): %w", n, w, err)
		}
		onTimes := make([]float64, 0, reps)
		offTimes := make([]float64, 0, reps)
		bareTimes := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			res, err := eigen.Solve(tri, &eigen.Options{Workers: w})
			if err != nil {
				return nil, fmt.Errorf("audit bench n=%d w=%d (defended): %w", n, w, err)
			}
			onTimes = append(onTimes, float64(time.Since(t0).Microseconds())/1000)
			if !res.Stats.Audited {
				return nil, fmt.Errorf("audit bench n=%d w=%d: defended solve was not audited", n, w)
			}
			rec.Audited++

			t0 = time.Now()
			if _, err := eigen.Solve(tri, &eigen.Options{
				Workers:      w,
				DisableAudit: true,
			}); err != nil {
				return nil, fmt.Errorf("audit bench n=%d w=%d (audit off): %w", n, w, err)
			}
			offTimes = append(offTimes, float64(time.Since(t0).Microseconds())/1000)

			t0 = time.Now()
			if _, err := eigen.Solve(tri, &eigen.Options{
				Workers:      w,
				DisableABFT:  true,
				DisableAudit: true,
			}); err != nil {
				return nil, fmt.Errorf("audit bench n=%d w=%d (bare): %w", n, w, err)
			}
			bareTimes = append(bareTimes, float64(time.Since(t0).Microseconds())/1000)
		}
		// Each rep's three solves run back to back, so the per-rep ratios are
		// paired samples: frequency and co-tenant drift that spans a rep
		// cancels out of the ratio even when it moves the absolute medians.
		// The overhead columns are medians of those paired ratios.
		overheads := make([]float64, reps)
		defenses := make([]float64, reps)
		for r := 0; r < reps; r++ {
			overheads[r] = 100 * (onTimes[r] - offTimes[r]) / offTimes[r]
			defenses[r] = 100 * (onTimes[r] - bareTimes[r]) / bareTimes[r]
		}
		sort.Float64s(onTimes)
		sort.Float64s(offTimes)
		sort.Float64s(bareTimes)
		sort.Float64s(overheads)
		sort.Float64s(defenses)
		pt := AuditPoint{
			Workers:      w,
			OnMedianMS:   onTimes[len(onTimes)/2],
			OffMedianMS:  offTimes[len(offTimes)/2],
			BareMedianMS: bareTimes[len(bareTimes)/2],
			OverheadPct:  overheads[len(overheads)/2],
			DefensePct:   defenses[len(defenses)/2],
		}
		rec.Points = append(rec.Points, pt)
		fmt.Fprintf(cfg.out(), "  W%-2d  defended %8.1f ms   audit-off %8.1f ms   bare %8.1f ms   audit %+.1f%%   defense %+.1f%%\n",
			w, pt.OnMedianMS, pt.OffMedianMS, pt.BareMedianMS, pt.OverheadPct, pt.DefensePct)
	}
	fmt.Fprintf(cfg.out(), "defense activity over defended runs: audited=%d\n", rec.Audited)
	return rec, nil
}

// MergeJSON merges the record into path under the "audit" key, preserving
// any other keys already in the file.
func (r *AuditRecord) MergeJSON(path string) error {
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	doc["audit"] = r
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
