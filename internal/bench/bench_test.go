package bench

import (
	"bytes"
	"strings"
	"testing"
)

func quickCfg(sizes ...int) *Config {
	var b bytes.Buffer
	return &Config{Sizes: sizes, Quick: true, Out: &b}
}

func TestTable1SlopesOrdered(t *testing.T) {
	if raceEnabled {
		// The race detector skews the fitted slopes: it multiplies the cost
		// of instrumented Go code (packing, copies) but not of the assembly
		// GEMM micro-kernel, so the cubic UpdateVect term no longer
		// dominates at these sizes and the log-log fit flattens.
		t.Skip("timing-slope fit is not meaningful under the race detector")
	}
	cfg := &Config{Sizes: []int{200, 400, 800}, Out: &bytes.Buffer{}}
	rows, slopes, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	// The cubic kernel must scale visibly faster than the linear one; with
	// small sizes the constants are noisy, so only the ordering is checked.
	if !(slopes["UpdateVect"] > slopes["ComputeDeflation"]) {
		t.Errorf("slopes not ordered: update=%v deflation=%v", slopes["UpdateVect"], slopes["ComputeDeflation"])
	}
	if slopes["UpdateVect"] < 1.8 {
		t.Errorf("UpdateVect slope %v too flat for a cubic kernel", slopes["UpdateVect"])
	}
}

func TestTable3Runs(t *testing.T) {
	cfg := &Config{Sizes: []int{150}, Types: []int{2, 4, 10, 12}, Out: &bytes.Buffer{}}
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	// type 2 is the near-total-deflation case
	for _, r := range rows {
		if r.Type == 2 && r.DeflationRatio < 0.8 {
			t.Errorf("type 2 deflation %v, want ~1", r.DeflationRatio)
		}
	}
}

func TestFig3TraceOrdering(t *testing.T) {
	var b bytes.Buffer
	cfg := &Config{Sizes: []int{400}, Workers: []int{16}, Out: &b}
	rows, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 optimization levels, got %d", len(rows))
	}
	// Each optimization level must not be slower than the previous.
	if rows[1].Makespan > rows[0].Makespan*1.05 {
		t.Errorf("(b) %v slower than (a) %v", rows[1].Makespan, rows[0].Makespan)
	}
	if rows[2].Makespan > rows[1].Makespan*1.05 {
		t.Errorf("(c) %v slower than (b) %v", rows[2].Makespan, rows[1].Makespan)
	}
	if !strings.Contains(b.String(), "legend") {
		t.Error("missing gantt output")
	}
}

func TestFig4Runs(t *testing.T) {
	cfg := &Config{Sizes: []int{300}, Workers: []int{8}, Out: &bytes.Buffer{}}
	tr, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan <= 0 || tr.Speedup < 1 {
		t.Errorf("trace: %+v", tr)
	}
}

func TestFig5ShapeHolds(t *testing.T) {
	cfg := &Config{Sizes: []int{500}, Workers: []int{1, 4, 16}, Types: []int{2, 4}, Out: &bytes.Buffer{}}
	rows, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byType := map[int]SpeedupRow{}
	for _, r := range rows {
		byType[r.Type] = r
		if r.Speedup[0] < 0.99 || r.Speedup[0] > 1.01 {
			t.Errorf("type %d: P=1 speedup %v", r.Type, r.Speedup[0])
		}
		for i := 1; i < len(r.Speedup); i++ {
			if r.Speedup[i] < r.Speedup[i-1]-0.25 {
				t.Errorf("type %d: speedup not (weakly) increasing: %v", r.Type, r.Speedup)
			}
		}
	}
	// High deflation (type 2, memory bound) must scale worse than low
	// deflation (type 4) at 16 workers — the paper's plateau.
	if byType[2].Speedup[2] >= byType[4].Speedup[2] {
		t.Errorf("expected type 2 plateau below type 4: %v vs %v",
			byType[2].Speedup[2], byType[4].Speedup[2])
	}
}

func TestFig6TaskFlowWins(t *testing.T) {
	cfg := &Config{Sizes: []int{500}, Types: []int{3, 4}, Workers: []int{16}, Out: &bytes.Buffer{}}
	rows, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ratio < 1 {
			t.Errorf("type %d n=%d: task flow slower than fork/join model (ratio %v)", r.Type, r.N, r.Ratio)
		}
	}
}

func TestFig7TaskFlowWins(t *testing.T) {
	cfg := &Config{Sizes: []int{500}, Types: []int{4}, Workers: []int{16}, Out: &bytes.Buffer{}}
	rows, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ratio < 0.95 {
			t.Errorf("type %d n=%d: task flow much slower than level-sync (ratio %v)", r.Type, r.N, r.Ratio)
		}
	}
}

func TestFig8Runs(t *testing.T) {
	cfg := &Config{Sizes: []int{200}, Types: []int{2, 10, 14}, Out: &bytes.Buffer{}}
	rows, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.TimeDC <= 0 || r.TimeMR <= 0 {
			t.Errorf("non-positive times: %+v", r)
		}
	}
}

func TestFig9AccuracyShape(t *testing.T) {
	cfg := &Config{Sizes: []int{200}, Types: []int{3, 4, 10}, Out: &bytes.Buffer{}}
	rows, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OrthDC > 1e-13 || r.ResidDC > 1e-13 {
			t.Errorf("type %d: DC accuracy out of range: %+v", r.Type, r)
		}
		if r.OrthMR > 1e-10 || r.ResidMR > 1e-10 {
			t.Errorf("type %d: MRRR accuracy out of range: %+v", r.Type, r)
		}
	}
}

func TestFig10Runs(t *testing.T) {
	cfg := &Config{Sizes: []int{150}, Out: &bytes.Buffer{}}
	rows, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("appset rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.OrthDC > 1e-12 {
			t.Errorf("%s: DC orthogonality %v", r.Name, r.OrthDC)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := &Config{Sizes: []int{300}, Workers: []int{8}, Out: &bytes.Buffer{}}
	rows, err := AblatePanelSize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("nb rows: %d", len(rows))
	}
	// the largest panel size serializes each merge: worst simulated speedup
	if rows[len(rows)-1].Speedup > rows[1].Speedup {
		t.Errorf("nb=n should not beat small panels: %+v", rows)
	}
	if _, err := AblateMinPartition(cfg); err != nil {
		t.Fatal(err)
	}
	if err := AblateGatherv(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTheoryErrorModel(t *testing.T) {
	cfg := &Config{Sizes: []int{100, 200, 400}, Out: &bytes.Buffer{}}
	rows, slopes, err := Theory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	// D&C must be the more accurate method at every size and its error must
	// grow more slowly than MRRR's (the paper's O(√n·ε) vs O(n·ε) claim).
	for _, r := range rows {
		if r.OrthDC >= r.OrthMR {
			t.Errorf("n=%d: DC error %v not below MRRR %v", r.N, r.OrthDC, r.OrthMR)
		}
	}
	if !(slopes["DC"] < slopes["MRRR"]+0.5) {
		t.Errorf("DC slope %v should be below MRRR %v", slopes["DC"], slopes["MRRR"])
	}
}
