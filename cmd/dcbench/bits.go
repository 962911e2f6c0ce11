package main

// The bits subcommand captures the solver's result bits, so a change that
// claims to keep them, or to move them only in the last place, can show it:
//
//	dcbench bits                  FNV-64a of λ and V per case
//	dcbench bits -out DIR         ... and write each case's λ to DIR
//	dcbench bits -against DIR     ... and compare each case's λ with DIR's
//
// The cases are perturbed Legendre n=1200, glued Wilkinson W21 n=2000 and a
// random N(0,1) tridiagonal n=1000 (the two lib benchmark families and a
// generic spectrum), seeds 1–3, W ∈ {1, 2}, full and values-only solves,
// with the assembly kernels on and off: 72 task-flow solves. Then the same
// matrices' full solves by the sequential divide and conquer
// (MethodDCSequential, the dstedc tier), assembly on and off: 18 more. A
// comparison prints, per case, how many eigenvalues differ and the largest
// |Δλ| in units of ε·‖λ‖∞ (ε = 2⁻⁵²).
//
// The file uses only the eigen package's public API and simd.SetSIMD, and
// dispatches from init, ahead of dcbench's own flag parsing, so it can be
// copied alone into the cmd/dcbench of an older tree to capture that tree's
// bits for the before side of a comparison.

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"tridiag/eigen"
	"tridiag/internal/simd"
)

func init() {
	if len(os.Args) > 1 && os.Args[1] == "bits" {
		if err := runBits(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "dcbench bits:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

// bitsMatrices are the capture's matrix families: name, order, generator.
var bitsMatrices = []struct {
	name string
	n    int
	gen  func(rng *rand.Rand, n int) eigen.Tridiagonal
}{
	{"legendre", 1200, func(rng *rand.Rand, n int) eigen.Tridiagonal {
		// The Legendre Jacobi matrix with 1e-6 relative off-diagonal and
		// diagonal perturbations: almost nothing deflates.
		d, e := make([]float64, n), make([]float64, n-1)
		for i := 1; i < n; i++ {
			fi := float64(i)
			e[i-1] = fi / math.Sqrt((2*fi-1)*(2*fi+1)) * (1 + 1e-6*(2*rng.Float64()-1))
		}
		for i := range d {
			d[i] = 0.5e-6 * (2*rng.Float64() - 1)
		}
		return eigen.Tridiagonal{D: d, E: e}
	}},
	{"w21", 2000, func(rng *rand.Rand, n int) eigen.Tridiagonal {
		// Jittered Wilkinson W21⁺ blocks glued by ~1e-10 couplings: most
		// of every merge deflates.
		d, e := make([]float64, n), make([]float64, n-1)
		for s := 0; s < n; s += 21 {
			bs := min(21, n-s)
			for i := 0; i < bs; i++ {
				d[s+i] = math.Abs(float64(i-bs/2)) + 1e-5*(2*rng.Float64()-1)
				if i < bs-1 {
					e[s+i] = 1
				}
			}
			if s+bs < n {
				e[s+bs-1] = 1e-10 * (0.5 + rng.Float64())
			}
		}
		return eigen.Tridiagonal{D: d, E: e}
	}},
	{"random", 1000, func(rng *rand.Rand, n int) eigen.Tridiagonal {
		d, e := make([]float64, n), make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		return eigen.Tridiagonal{D: d, E: e}
	}},
}

func runBits(args []string) error {
	fs := flag.NewFlagSet("dcbench bits", flag.ContinueOnError)
	out := fs.String("out", "", "write each case's eigenvalues to this directory")
	against := fs.String("against", "", "compare each case's eigenvalues with those written to this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	defer simd.SetSIMD(simd.Available())
	var cases, moved, differing int
	var worst float64
	// solve runs one case and prints its line.
	solve := func(name string, t eigen.Tridiagonal, opts *eigen.Options, asm bool) error {
		simd.SetSIMD(asm)
		res, err := eigen.SolveContext(context.Background(), t, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		line := fmt.Sprintf("%-34s lambda=%016x V=%s", name, fnvFloats(res.Values), "-")
		if !opts.ValuesOnly {
			line = fmt.Sprintf("%-34s lambda=%016x V=%016x", name, fnvFloats(res.Values), fnvFloats(res.Vectors))
		}
		if *out != "" {
			if err := os.WriteFile(filepath.Join(*out, name+".bin"), floatBytes(res.Values), 0o644); err != nil {
				return err
			}
		}
		if *against != "" {
			raw, err := os.ReadFile(filepath.Join(*against, name+".bin"))
			if err != nil {
				return err
			}
			nd, rel, err := compareValues(res.Values, raw)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			line += fmt.Sprintf("  differ=%d max=%.2fε‖λ‖", nd, rel)
			moved += nd
			if nd > 0 {
				differing++
			}
			worst = math.Max(worst, rel)
		}
		cases++
		fmt.Println(line)
		return nil
	}
	for _, m := range bitsMatrices {
		for seed := int64(1); seed <= 3; seed++ {
			t := m.gen(rand.New(rand.NewSource(seed)), m.n)
			for _, w := range []int{1, 2} {
				for _, vo := range []bool{false, true} {
					for _, asm := range []bool{true, false} {
						opts := &eigen.Options{Workers: w, ValuesOnly: vo}
						if err := solve(bitsCaseName(m.name, m.n, seed, w, vo, asm), t, opts, asm); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	for _, m := range bitsMatrices {
		for seed := int64(1); seed <= 3; seed++ {
			t := m.gen(rand.New(rand.NewSource(seed)), m.n)
			for _, asm := range []bool{true, false} {
				kern := "asm"
				if !asm {
					kern = "go"
				}
				name := fmt.Sprintf("%s%d-s%d-seq-full-%s", m.name, m.n, seed, kern)
				if err := solve(name, t, &eigen.Options{Method: eigen.MethodDCSequential}, asm); err != nil {
					return err
				}
			}
		}
	}
	if *against != "" {
		fmt.Printf("%d cases: %d with moved eigenvalues, %d eigenvalues moved in all, max |Δλ| %.2f ε·‖λ‖∞\n", cases, differing, moved, worst)
	}
	return nil
}

// bitsCaseName is a case's label and its file name under -out/-against.
func bitsCaseName(matrix string, n int, seed int64, w int, vo, asm bool) string {
	lane, kern := "full", "asm"
	if vo {
		lane = "values"
	}
	if !asm {
		kern = "go"
	}
	return fmt.Sprintf("%s%d-s%d-w%d-%s-%s", matrix, n, seed, w, lane, kern)
}

// fnvFloats is the FNV-64a hash of the little-endian bytes of v.
func fnvFloats(v []float64) uint64 {
	h := fnv.New64a()
	h.Write(floatBytes(v))
	return h.Sum64()
}

func floatBytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// compareValues counts the eigenvalues of got whose bits differ from the
// little-endian float64s in raw, and returns the largest |Δλ| over
// ε·‖λ‖∞ of raw's values.
func compareValues(got []float64, raw []byte) (differ int, rel float64, err error) {
	if len(raw) != 8*len(got) {
		return 0, 0, fmt.Errorf("reference holds %d bytes for %d eigenvalues", len(raw), len(got))
	}
	var norm, diff float64
	for i, x := range got {
		r := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		norm = math.Max(norm, math.Abs(r))
		if math.Float64bits(x) != math.Float64bits(r) {
			differ++
			diff = math.Max(diff, math.Abs(x-r))
		}
	}
	if differ == 0 {
		return 0, 0, nil
	}
	return differ, diff / (0x1p-52 * norm), nil
}
