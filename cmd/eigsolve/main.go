// eigsolve is a command-line symmetric tridiagonal eigensolver.
//
// Input is either a file (-i) with the matrix order n on the first line,
// then n diagonal values, then n-1 off-diagonal values (whitespace
// separated), or a generated Table III test matrix (-type/-n).
//
//	eigsolve -i matrix.txt -method dc -vectors
//	eigsolve -type 11 -n 500 -method mrrr
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"tridiag/eigen"
	"tridiag/internal/lapack"
	"tridiag/internal/svd"
	"tridiag/internal/testmat"
)

func readMatrix(path string) (eigen.Tridiagonal, error) {
	f, err := os.Open(path)
	if err != nil {
		return eigen.Tridiagonal{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	sc.Split(bufio.ScanWords)
	var n int
	if !sc.Scan() {
		return eigen.Tridiagonal{}, fmt.Errorf("empty input")
	}
	if _, err := fmt.Sscan(sc.Text(), &n); err != nil {
		return eigen.Tridiagonal{}, fmt.Errorf("bad order: %w", err)
	}
	read := func(k int) ([]float64, error) {
		out := make([]float64, k)
		for i := 0; i < k; i++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("unexpected end of input at value %d", i)
			}
			if _, err := fmt.Sscan(sc.Text(), &out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	d, err := read(n)
	if err != nil {
		return eigen.Tridiagonal{}, err
	}
	e, err := read(n - 1)
	if err != nil {
		return eigen.Tridiagonal{}, err
	}
	return eigen.Tridiagonal{D: d, E: e}, nil
}

func main() {
	input := flag.String("i", "", "input tridiagonal file (n, then d, then e)")
	dense := flag.String("dense", "", "input dense symmetric file (n, then n² column-major values)")
	svdIn := flag.String("svd", "", "input dense file for SVD (m n, then m·n column-major values)")
	typ := flag.Int("type", 0, "generate a Table III matrix of this type instead")
	n := flag.Int("n", 500, "generated matrix size")
	method := flag.String("method", "dc", "solver: dc | dc-seq | mrrr | qr (tridiagonal); pipeline | jacobi (dense)")
	workers := flag.Int("workers", 0, "worker goroutines (0: all cores)")
	vectors := flag.Bool("vectors", false, "print eigenvectors too")
	valuesOnly := flag.Bool("values-only", false, "compute eigenvalues only: dc runs the task-flow D&C values lane (Dsterf if it fails), dc-seq, mrrr and qr run Dsterf; -dense pipeline skips the back-transformation, -svd the singular vectors")
	seed := flag.Int64("seed", 1, "random seed for generated matrices")
	flag.Parse()

	if *svdIn != "" {
		runSVD(*svdIn, *valuesOnly)
		return
	}
	if *dense != "" {
		runDense(*dense, *method, *workers, *vectors, *valuesOnly)
		return
	}

	var t eigen.Tridiagonal
	switch {
	case *input != "":
		var err error
		t, err = readMatrix(*input)
		fail(err)
	case *typ > 0:
		m, err := testmat.Type(*typ, *n, rand.New(rand.NewSource(*seed)))
		fail(err)
		t = eigen.Tridiagonal{D: m.D, E: m.E}
		fmt.Fprintf(os.Stderr, "generated %s, n=%d\n", m.Name, m.N())
	default:
		fmt.Fprintln(os.Stderr, "eigsolve: need -i FILE or -type N (see -h)")
		os.Exit(2)
	}

	var m eigen.Method
	switch *method {
	case "dc":
		m = eigen.MethodDC
	case "dc-seq":
		m = eigen.MethodDCSequential
	case "mrrr":
		m = eigen.MethodMRRR
	case "qr":
		m = eigen.MethodQR
	default:
		fail(fmt.Errorf("unknown method %q", *method))
	}

	// A values-only solve falls back to Dsterf, as eigen.Values does.
	opts := &eigen.Options{Method: m, Workers: *workers, ValuesOnly: *valuesOnly, Fallback: *valuesOnly}
	t0 := time.Now()
	res, err := eigen.Solve(t, opts)
	fail(err)
	el := time.Since(t0)
	fmt.Fprintf(os.Stderr, "solved n=%d with %s (tier %s) in %v\n", t.N(), m, res.Stats.Tier, el)
	if !*valuesOnly {
		fmt.Fprintf(os.Stderr, "orthogonality %.2e, residual %.2e\n",
			eigen.Orthogonality(res), eigen.Residual(t, res))
	}

	for j, v := range res.Values {
		fmt.Printf("%.17g", v)
		if *vectors && !*valuesOnly {
			for _, x := range res.Vector(j) {
				fmt.Printf(" %.17g", x)
			}
		}
		fmt.Println()
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "eigsolve:", err)
		os.Exit(1)
	}
}

// readFloats reads the given count of whitespace-separated numbers after an
// integer header of headN values.
func readDense(path string, headN int) ([]int, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	sc.Split(bufio.ScanWords)
	head := make([]int, headN)
	for i := range head {
		if !sc.Scan() {
			return nil, nil, fmt.Errorf("missing header value %d", i)
		}
		if _, err := fmt.Sscan(sc.Text(), &head[i]); err != nil {
			return nil, nil, err
		}
	}
	var vals []float64
	for sc.Scan() {
		var v float64
		if _, err := fmt.Sscan(sc.Text(), &v); err != nil {
			return nil, nil, err
		}
		vals = append(vals, v)
	}
	return head, vals, nil
}

func runDense(path, method string, workers int, vectors, valuesOnly bool) {
	head, vals, err := readDense(path, 1)
	fail(err)
	n := head[0]
	if len(vals) != n*n {
		fail(fmt.Errorf("dense input: got %d values, want %d", len(vals), n*n))
	}
	t0 := time.Now()
	var res *eigen.Result
	switch method {
	case "pipeline", "dc", "":
		res, err = eigen.SymEigen(n, vals, n, &eigen.Options{Workers: workers, ValuesOnly: valuesOnly})
	case "jacobi":
		if valuesOnly {
			fail(fmt.Errorf("jacobi has no values-only mode"))
		}
		w := make([]float64, n)
		v := make([]float64, n*n)
		err = lapack.JacobiEigen(n, vals, n, w, v, n)
		if err == nil {
			res = &eigen.Result{N: n, Values: w, Vectors: v}
		}
	default:
		fail(fmt.Errorf("unknown dense method %q", method))
	}
	fail(err)
	el := time.Since(t0)
	if valuesOnly {
		fmt.Fprintf(os.Stderr, "dense n=%d eigenvalues with %s in %v\n", n, method, el)
	} else {
		fmt.Fprintf(os.Stderr, "dense n=%d solved with %s in %v (orthogonality %.2e)\n",
			n, method, el, eigen.Orthogonality(res))
	}
	for j, v := range res.Values {
		fmt.Printf("%.17g", v)
		if vectors && !valuesOnly {
			for _, x := range res.Vector(j) {
				fmt.Printf(" %.17g", x)
			}
		}
		fmt.Println()
	}
}

func runSVD(path string, valuesOnly bool) {
	head, vals, err := readDense(path, 2)
	fail(err)
	m, n := head[0], head[1]
	if len(vals) != m*n {
		fail(fmt.Errorf("svd input: got %d values, want %d", len(vals), m*n))
	}
	t0 := time.Now()
	if valuesOnly {
		s, err := svd.Values(m, n, vals, m)
		fail(err)
		fmt.Fprintf(os.Stderr, "singular values (%dx%d) in %v\n", m, n, time.Since(t0))
		for _, v := range s {
			fmt.Printf("%.17g\n", v)
		}
		return
	}
	r, err := svd.Decompose(m, n, vals, m, nil)
	fail(err)
	fmt.Fprintf(os.Stderr, "SVD (%dx%d) in %v\n", m, n, time.Since(t0))
	for _, v := range r.S {
		fmt.Printf("%.17g\n", v)
	}
}
