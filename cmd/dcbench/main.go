// dcbench regenerates the paper's tables and figures (see DESIGN.md §4 for
// the experiment index). Each subcommand prints the rows/series of one
// table or figure:
//
//	dcbench table1            merge kernel cost scaling (Table I)
//	dcbench table3            the 15-type matrix suite (Table III)
//	dcbench fig3              optimization-level traces (Figure 3 a-c)
//	dcbench fig4              high-deflation trace (Figure 4)
//	dcbench fig5              scalability curves (Figure 5)
//	dcbench fig6              speedup vs fork/join LAPACK model (Figure 6)
//	dcbench fig7              speedup vs level-sync ScaLAPACK model (Figure 7)
//	dcbench fig8              MRRR vs D&C timing (Figure 8)
//	dcbench fig9              accuracy comparison (Figure 9 a+b)
//	dcbench fig10             application matrix set (Figure 10)
//	dcbench secular           secular-phase kernels, scalar vs SIMD
//	dcbench bits              hashes of λ and V over 72 solves (bits.go; -out/-against DIR)
//	dcbench ablate            ablations: panel size, leaf size, Gatherv
//	dcbench theory            orthogonality growth vs n (§V error model)
//	dcbench all               every table and figure above in sequence
//
// Flags: -sizes 500,1000 -types 2,3,4 -workers 1,2,4,8,16 -seed 7 -quick -bw 4
//
// The repository's performance benchmark is perfbench/ (see BENCHMARK.json),
// not this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tridiag/internal/bench"
)

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	fs := flag.NewFlagSet("dcbench", flag.ExitOnError)
	sizes := fs.String("sizes", "", "comma-separated matrix sizes (default: per-experiment)")
	types := fs.String("types", "", "comma-separated Table III types (default: per-experiment)")
	workers := fs.String("workers", "", "comma-separated worker counts for simulation")
	seed := fs.Int64("seed", 0, "random seed (0: fixed default)")
	quick := fs.Bool("quick", false, "smaller sizes for a fast smoke run")
	bw := fs.Float64("bw", 0, "bandwidth cap in concurrent streams (0: default 4)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcbench [flags] <table1|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|secular|ablate|theory|all>\n       dcbench bits [-out DIR] [-against DIR]\n")
		fs.PrintDefaults()
	}
	if len(os.Args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	// Accept flags before or after the subcommand.
	args := os.Args[1:]
	var cmds []string
	var flagArgs []string
	for i := 0; i < len(args); i++ {
		if strings.HasPrefix(args[i], "-") {
			flagArgs = append(flagArgs, args[i])
			if !strings.Contains(args[i], "=") && i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") &&
				args[i] != "-quick" {
				flagArgs = append(flagArgs, args[i+1])
				i++
			}
		} else {
			cmds = append(cmds, args[i])
		}
	}
	if err := fs.Parse(flagArgs); err != nil {
		os.Exit(2)
	}
	if len(cmds) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	sz, err := parseInts(*sizes)
	fail(err)
	ty, err := parseInts(*types)
	fail(err)
	wk, err := parseInts(*workers)
	fail(err)
	cfg := &bench.Config{
		Sizes: sz, Types: ty, Workers: wk,
		Seed: *seed, Quick: *quick, BandwidthStreams: *bw,
		Out: os.Stdout,
	}

	run := func(name string) {
		fmt.Printf("\n================ %s ================\n", name)
		switch name {
		case "table1":
			_, _, err = bench.Table1(cfg)
		case "table3":
			_, err = bench.Table3(cfg)
		case "fig3":
			_, err = bench.Fig3(cfg)
		case "fig4":
			_, err = bench.Fig4(cfg)
		case "fig5":
			_, err = bench.Fig5(cfg)
		case "fig6":
			_, err = bench.Fig6(cfg)
		case "fig7":
			_, err = bench.Fig7(cfg)
		case "fig8":
			_, err = bench.Fig8(cfg)
		case "fig9":
			_, err = bench.Fig9(cfg)
		case "fig10":
			_, err = bench.Fig10(cfg)
		case "secular":
			_, err = bench.Secular(cfg)
		case "ablate":
			err = bench.Ablate(cfg)
		case "theory":
			_, _, err = bench.Theory(cfg)
		default:
			fail(fmt.Errorf("unknown experiment %q", name))
		}
		fail(err)
	}

	for _, c := range cmds {
		if c == "all" {
			for _, name := range []string{"table1", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
				run(name)
			}
			continue
		}
		run(c)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		os.Exit(1)
	}
}
