package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"tridiag/internal/quark"
	"tridiag/internal/sched"
)

func sampleGraph() *quark.Graph {
	g := &quark.Graph{}
	add := func(id int, class string, worker int, start, end float64) {
		g.Tasks = append(g.Tasks, quark.TaskInfo{
			ID: id, Class: class, Label: class, Worker: worker,
			Start: time.Duration(start * float64(time.Second)),
			End:   time.Duration(end * float64(time.Second)),
		})
	}
	add(0, "STEDC", 0, 0, 1)
	add(1, "STEDC", 1, 0, 1)
	add(2, "ComputeDeflation", 0, 1, 1.2)
	add(3, "UpdateVect", 1, 1.2, 2.2)
	g.Tasks[3].Canceled = true
	g.Edges = [][2]int{{0, 2}, {1, 2}, {2, 3}}
	return g
}

func TestFromGraph(t *testing.T) {
	tl := FromGraph(sampleGraph())
	if tl.Workers != 2 || len(tl.Events) != 4 {
		t.Fatalf("workers=%d events=%d", tl.Workers, len(tl.Events))
	}
	if math.Abs(tl.Makespan-2.2) > 1e-9 {
		t.Errorf("makespan %v", tl.Makespan)
	}
}

func TestGanttOutput(t *testing.T) {
	tl := FromGraph(sampleGraph())
	out := tl.Gantt(40)
	if !strings.Contains(out, "w00") || !strings.Contains(out, "w01") {
		t.Errorf("missing worker rows:\n%s", out)
	}
	if !strings.Contains(out, "S=STEDC") || !strings.Contains(out, "U=UpdateVect") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "S") || !strings.Contains(out, "U") {
		t.Errorf("missing symbols:\n%s", out)
	}
	// idle time on worker 0 after deflation
	if !strings.Contains(out, ".") {
		t.Errorf("expected idle cells:\n%s", out)
	}
}

func TestClassBreakdownAndIdle(t *testing.T) {
	tl := FromGraph(sampleGraph())
	bd := tl.ClassBreakdown()
	if math.Abs(bd["STEDC"]-2) > 1e-9 {
		t.Errorf("STEDC busy %v", bd["STEDC"])
	}
	if math.Abs(bd["UpdateVect"]-1) > 1e-9 {
		t.Errorf("UpdateVect busy %v", bd["UpdateVect"])
	}
	// busy = 3.2s over 2 workers * 2.2s
	want := 1 - 3.2/4.4
	if math.Abs(tl.IdleFraction()-want) > 1e-9 {
		t.Errorf("idle %v want %v", tl.IdleFraction(), want)
	}
	rep := tl.BreakdownReport()
	if !strings.Contains(rep, "STEDC") || !strings.Contains(rep, "makespan") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestCSV(t *testing.T) {
	tl := FromGraph(sampleGraph())
	csv := tl.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines: %d", len(lines))
	}
	if lines[0] != "task,class,label,worker,canceled,start,end" {
		t.Errorf("header %q", lines[0])
	}
	canceled := 0
	for _, l := range lines[1:] {
		if strings.Contains(l, ",1,") && strings.Contains(l, "UpdateVect") {
			canceled++
		}
	}
	if canceled != 1 {
		t.Errorf("expected exactly the canceled UpdateVect row flagged, got %d:\n%s", canceled, csv)
	}
}

func TestCanceledCountAndReport(t *testing.T) {
	tl := FromGraph(sampleGraph())
	if tl.CanceledCount() != 1 {
		t.Errorf("canceled count %d, want 1", tl.CanceledCount())
	}
	rep := tl.BreakdownReport()
	if !strings.Contains(rep, "canceled") || !strings.Contains(rep, " 1 of 4 tasks") {
		t.Errorf("report missing canceled line:\n%s", rep)
	}
}

func TestFromSimulation(t *testing.T) {
	g := sampleGraph()
	r, err := sched.Simulate(g, sched.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tl := FromSimulation(g, r, 2)
	if len(tl.Events) != 4 {
		t.Fatalf("events %d", len(tl.Events))
	}
	if tl.Makespan <= 0 {
		t.Error("zero makespan")
	}
	out := tl.Gantt(30)
	if !strings.Contains(out, "makespan") {
		t.Errorf("gantt:\n%s", out)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := &Timeline{}
	if out := tl.Gantt(20); !strings.Contains(out, "empty") {
		t.Errorf("empty gantt: %q", out)
	}
	if tl.IdleFraction() != 0 {
		t.Error("empty idle")
	}
}
