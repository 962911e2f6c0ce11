// Package trace renders execution timelines of task-flow runs: an ASCII
// Gantt chart (one row per worker, the textual analogue of the paper's
// Figures 3 and 4), per-kernel-class time breakdowns, idle statistics, and
// CSV export for external plotting.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"tridiag/internal/quark"
	"tridiag/internal/sched"
)

// Event is one task's placement on the timeline.
type Event struct {
	Task     int
	Class    string
	Label    string
	Worker   int
	Canceled bool    // skipped: a predecessor failed or the solve was cancelled
	Start    float64 // seconds
	End      float64
}

// Timeline is a complete schedule: real (from a quark run) or simulated.
type Timeline struct {
	Events   []Event
	Workers  int
	Makespan float64
}

// FromGraph builds a timeline from a captured real execution.
func FromGraph(g *quark.Graph) *Timeline {
	tl := &Timeline{}
	for _, t := range g.Tasks {
		ev := Event{
			Task: t.ID, Class: t.Class, Label: t.Label, Worker: t.Worker,
			Canceled: t.Canceled, Start: t.Start.Seconds(), End: t.End.Seconds(),
		}
		tl.Events = append(tl.Events, ev)
		if t.Worker+1 > tl.Workers {
			tl.Workers = t.Worker + 1
		}
		if ev.End > tl.Makespan {
			tl.Makespan = ev.End
		}
	}
	return tl
}

// FromSimulation builds a timeline from a replay-simulated schedule.
func FromSimulation(g *quark.Graph, r *sched.Result, workers int) *Timeline {
	tl := &Timeline{Workers: workers, Makespan: r.Makespan}
	for _, s := range r.Spans {
		t := g.Tasks[s.Task]
		tl.Events = append(tl.Events, Event{
			Task: s.Task, Class: t.Class, Label: t.Label, Worker: s.Worker,
			Start: s.Start, End: s.End,
		})
	}
	return tl
}

// classSymbols assigns a stable single-character symbol to each class.
var classSymbols = map[string]byte{
	"STEDC":            'S',
	"ComputeDeflation": 'D',
	"PermuteV":         'P',
	"LAED4":            '4',
	"ComputeLocalW":    'w',
	"ReduceW":          'R',
	"CopyBackDeflated": 'C',
	"ComputeVect":      'V',
	"UpdateVect":       'U',
	"PackV":            'K',
	"SortEigenvectors": 'E',
	"Dlamrg":           'm',
	"Scale":            's',
	"LASET":            'L',
}

func symbolFor(class string, taken map[byte]bool) byte {
	if s, ok := classSymbols[class]; ok {
		return s
	}
	for i := 0; i < len(class); i++ {
		c := class[i]
		if !taken[c] {
			return c
		}
	}
	return '#'
}

// Gantt renders the timeline as one text row per worker, width characters
// wide. Each cell shows the kernel-class symbol of the task occupying most
// of that time bucket; '.' marks idle time. A legend follows the chart.
func (tl *Timeline) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	if tl.Makespan == 0 || len(tl.Events) == 0 {
		return "(empty timeline)\n"
	}
	classes := tl.classes()
	taken := map[byte]bool{'.': true}
	sym := map[string]byte{}
	for _, c := range classes {
		s := symbolFor(c, taken)
		sym[c] = s
		taken[s] = true
	}
	rows := make([][]float64, tl.Workers) // occupancy per bucket per class idx
	chosen := make([][]byte, tl.Workers)
	occupied := make([][]float64, tl.Workers)
	for w := range chosen {
		chosen[w] = make([]byte, width)
		occupied[w] = make([]float64, width)
		rows[w] = nil
		for i := range chosen[w] {
			chosen[w][i] = '.'
		}
	}
	dt := tl.Makespan / float64(width)
	for _, ev := range tl.Events {
		if ev.Worker < 0 {
			continue
		}
		b0 := int(ev.Start / dt)
		b1 := int(ev.End / dt)
		for b := b0; b <= b1 && b < width; b++ {
			lo := float64(b) * dt
			hi := lo + dt
			overlap := min(ev.End, hi) - max(ev.Start, lo)
			if overlap > occupied[ev.Worker][b] {
				occupied[ev.Worker][b] = overlap
				chosen[ev.Worker][b] = sym[ev.Class]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.4fs, %d workers, %d tasks\n", tl.Makespan, tl.Workers, len(tl.Events))
	for w := 0; w < tl.Workers; w++ {
		fmt.Fprintf(&b, "w%02d |%s|\n", w, chosen[w])
	}
	b.WriteString("legend:")
	for _, c := range classes {
		fmt.Fprintf(&b, " %c=%s", sym[c], c)
	}
	b.WriteString(" .=idle\n")
	return b.String()
}

func (tl *Timeline) classes() []string {
	set := map[string]bool{}
	for _, ev := range tl.Events {
		set[ev.Class] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ClassBreakdown returns total busy seconds per kernel class.
func (tl *Timeline) ClassBreakdown() map[string]float64 {
	out := map[string]float64{}
	for _, ev := range tl.Events {
		out[ev.Class] += ev.End - ev.Start
	}
	return out
}

// BreakdownReport formats the class breakdown as a percentage table.
func (tl *Timeline) BreakdownReport() string {
	bd := tl.ClassBreakdown()
	var tot float64
	for _, v := range bd {
		tot += v
	}
	classes := tl.classes()
	sort.Slice(classes, func(i, j int) bool { return bd[classes[i]] > bd[classes[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %7s\n", "kernel", "busy (s)", "share")
	for _, c := range classes {
		fmt.Fprintf(&b, "%-20s %10.4f %6.1f%%\n", c, bd[c], 100*bd[c]/tot)
	}
	fmt.Fprintf(&b, "%-20s %10.4f\n", "total work", tot)
	fmt.Fprintf(&b, "%-20s %10.4f (idle %.1f%%)\n", "makespan", tl.Makespan, 100*tl.IdleFraction())
	if c := tl.CanceledCount(); c > 0 {
		fmt.Fprintf(&b, "%-20s %10d of %d tasks\n", "canceled", c, len(tl.Events))
	}
	return b.String()
}

// CanceledCount returns how many tasks were skipped instead of executed
// (failure cascade or external cancellation).
func (tl *Timeline) CanceledCount() int {
	n := 0
	for _, ev := range tl.Events {
		if ev.Canceled {
			n++
		}
	}
	return n
}

// IdleFraction returns the fraction of worker-seconds spent idle.
func (tl *Timeline) IdleFraction() float64 {
	if tl.Makespan == 0 || tl.Workers == 0 {
		return 0
	}
	var busy float64
	for _, ev := range tl.Events {
		busy += ev.End - ev.Start
	}
	return 1 - busy/(tl.Makespan*float64(tl.Workers))
}

// CSV exports the timeline as task,class,label,worker,canceled,start,end
// rows.
func (tl *Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("task,class,label,worker,canceled,start,end\n")
	evs := append([]Event(nil), tl.Events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	for _, ev := range evs {
		canceled := 0
		if ev.Canceled {
			canceled = 1
		}
		fmt.Fprintf(&b, "%d,%s,%q,%d,%d,%.9f,%.9f\n", ev.Task, ev.Class, ev.Label, ev.Worker, canceled, ev.Start, ev.End)
	}
	return b.String()
}
