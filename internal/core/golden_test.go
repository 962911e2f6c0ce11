package core

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// TestTaskGraphGolden pins the task flow's DAG and counts on six W=2
// solves: the two lib workloads' families (a glued Wilkinson W21 matrix in
// both lanes, a perturbed Legendre matrix), a random matrix in the two
// level-synchronized baselines, and a unit diagonal with couplings of at
// most 1e-300, whose merges all deflate everything (a task-flow merge with
// K = 0 counts no Dlamrg work, one inside a leaf counts its N). Per solve
// it checks the task and edge counts and four FNV-64a hashes: every
// captured task's ID, class, label and priority; the sorted edge list; the
// sorted per-class Stats.Ops; and the sorted MergeStat list (level, N, K,
// NB, evaluations, in-leaf). A change that claims to keep the DAG and the
// Table I counts must keep all four.
func TestTaskGraphGolden(t *testing.T) {
	type golden struct {
		tasks, edges               int
		graph, edgeList, ops, mrgs uint64
	}
	want := map[string]golden{
		"w21-2000/full":              {562, 3166, 0x3c04077348797e90, 0xd5e6df1194068d7b, 0x5a1ce04a03d5ddbf, 0x500f175703897856},
		"w21-2000/values":            {206, 571, 0x2180b7261eb48768, 0xf8a3bcfa0bbdd7ff, 0xba7aa5116addaac9, 0xd99192630e3b07fd},
		"legendre-1200/full":         {418, 2002, 0x0b6de1888bb20055, 0x21013d2e5e350200, 0x6b96b47f152c54a6, 0xc8189e3b11ccc6dd},
		"random-600/scalapack-model": {229, 1361, 0xdba1da50efbca726, 0xbfe1ffa92b0a9fdd, 0xc89bfe1521ccc523, 0x19993890a2e428ed},
		"random-600/level-sync":      {183, 789, 0xfd04f00864d63945, 0xa7d9083bffdb4e03, 0xea4726ce088797be, 0x19993890a2e428ed},
		"tiny-couplings-600/full":    {180, 785, 0x0dba96ab9357005a, 0xe94e5169dd8a6f5e, 0xf0cd954ca0be589c, 0x79fce4076c18a0f5},
	}
	w21d, w21e := gluedW21(rand.New(rand.NewSource(1)), 2000)
	legd, lege := perturbedLegendre(rand.New(rand.NewSource(1)), 1200)
	rndd, rnde := randTridiag(rand.New(rand.NewSource(1)), 600)
	tinyd, tinye := inlineFamilies[3](rand.New(rand.NewSource(1)), 600)
	for _, c := range []struct {
		name string
		d, e []float64
		opts Options
	}{
		{"w21-2000/full", w21d, w21e, Options{}},
		{"w21-2000/values", w21d, w21e, Options{ValuesOnly: true}},
		{"legendre-1200/full", legd, lege, Options{}},
		{"random-600/scalapack-model", rndd, rnde, Options{Mode: ModeScaLAPACK}},
		{"random-600/level-sync", rndd, rnde, Options{Mode: ModeLevelSync}},
		{"tiny-couplings-600/full", tinyd, tinye, Options{}},
	} {
		n := len(c.d)
		d, e := slices.Clone(c.d), slices.Clone(c.e)
		var q []float64
		if !c.opts.ValuesOnly {
			q = make([]float64, n*n)
		}
		opts := c.opts
		opts.Workers, opts.CaptureGraph = 2, true
		res, err := SolveDC(n, d, e, q, n, &opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := res.Graph
		got := golden{tasks: len(g.Tasks), edges: len(g.Edges)}

		h := fnv.New64a()
		for _, ti := range g.Tasks {
			fmt.Fprintf(h, "%d %s %s %d\n", ti.ID, ti.Class, ti.Label, ti.Priority)
		}
		got.graph = h.Sum64()

		h = fnv.New64a()
		edges := slices.Clone(g.Edges)
		slices.SortFunc(edges, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		for _, ed := range edges {
			fmt.Fprintf(h, "%d %d\n", ed[0], ed[1])
		}
		got.edgeList = h.Sum64()

		h = fnv.New64a()
		classes := make([]string, 0, len(res.Stats.Ops))
		for class := range res.Stats.Ops {
			classes = append(classes, class)
		}
		slices.Sort(classes)
		for _, class := range classes {
			fmt.Fprintf(h, "%s %d\n", class, res.Stats.Ops[class])
		}
		got.ops = h.Sum64()

		h = fnv.New64a()
		ms := slices.Clone(res.Stats.Merges)
		slices.SortFunc(ms, func(a, b MergeStat) int {
			return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.N, b.N), cmp.Compare(a.K, b.K),
				cmp.Compare(a.NB, b.NB), cmp.Compare(a.Evals, b.Evals), cmp.Compare(fmt.Sprint(a.InLeaf), fmt.Sprint(b.InLeaf)))
		})
		for _, m := range ms {
			fmt.Fprintf(h, "%d %d %d %d %d %v\n", m.Level, m.N, m.K, m.NB, m.Evals, m.InLeaf)
		}
		got.mrgs = h.Sum64()

		if w := want[c.name]; got != w {
			t.Errorf("%s: got %d tasks, %d edges, hashes graph %#x edges %#x ops %#x merges %#x; want %d, %d, %#x %#x %#x %#x",
				c.name, got.tasks, got.edges, got.graph, got.edgeList, got.ops, got.mrgs,
				w.tasks, w.edges, w.graph, w.edgeList, w.ops, w.mrgs)
		}
	}
}
