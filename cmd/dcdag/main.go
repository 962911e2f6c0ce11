// dcdag dumps the task DAG of a divide & conquer solve in Graphviz dot
// format (the paper's Figure 2) along with a task census and critical-path
// report. With -tree it prints only the partition tree (Figure 1).
//
//	dcdag -n 1000 -minpart 300 -nb 500 -o dag.dot
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"tridiag/internal/core"
	"tridiag/internal/testmat"
)

func main() {
	n := flag.Int("n", 1000, "matrix size")
	minpart := flag.Int("minpart", 300, "minimal partition size (leaf cutoff)")
	nb := flag.Int("nb", 500, "panel size")
	typ := flag.Int("type", 0, "Table III matrix type (0: random)")
	out := flag.String("o", "", "write dot to this file (default stdout)")
	tree := flag.Bool("tree", false, "print the partition tree only (Figure 1)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if *tree {
		sizes := core.LeafSizes(*n, *minpart)
		fmt.Printf("partition of n=%d with minimal size %d: %d leaves\n", *n, *minpart, len(sizes))
		level := sizes
		for len(level) >= 1 {
			fmt.Printf("  level: %v\n", level)
			if len(level) == 1 {
				break
			}
			var next []int
			for i := 0; i+1 < len(level); i += 2 {
				next = append(next, level[i]+level[i+1])
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			level = next
		}
		return
	}

	d, e := buildMatrix(*typ, *n, *seed)
	q := make([]float64, *n**n)
	res, err := core.SolveDC(*n, d, e, q, *n, &core.Options{
		Workers: 1, MinPartition: *minpart, PanelSize: *nb, CaptureGraph: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcdag:", err)
		os.Exit(1)
	}
	g := res.Graph
	dot := g.Dot()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(dot), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dcdag:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d tasks, %d edges)\n", *out, len(g.Tasks), len(g.Edges))
	} else {
		fmt.Print(dot)
	}
	fmt.Fprintf(os.Stderr, "task census: %v\n", g.ClassCounts())
	cp, path := g.CriticalPath()
	fmt.Fprintf(os.Stderr, "total work %.4fs, critical path %.4fs over %d tasks (max speedup %.1fx)\n",
		g.TotalWork(), cp, len(path), g.TotalWork()/cp)
}

func buildMatrix(typ, n int, seed int64) (d, e []float64) {
	rng := rand.New(rand.NewSource(seed))
	if typ > 0 {
		m, err := testmat.Type(typ, n, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcdag:", err)
			os.Exit(1)
		}
		return m.D, m.E
	}
	d = make([]float64, n)
	e = make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return d, e
}
