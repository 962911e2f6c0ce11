package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestSmallMinPartitionKeepsBits: QR leaves are min(MinPartition, 25) rows
// in every mode, so a caller whose MinPartition is at most 25 keeps the
// tree, and the bits, of the solver whose task leaves were its QR leaves.
// The hashes below are the FNV-64a of λ and V (the values-only lane: λ) that
// solver produced, in every mode, at MinPartition 16 and 25, on a random
// and a glued Wilkinson W21 matrix of 300 rows and a random one of 20 (one
// leaf at 25). A values-only matrix of one leaf is left out: that solver
// ran Dsterf on it, and the lane now runs the leaf's QR like the full
// solve.
func TestSmallMinPartitionKeepsBits(t *testing.T) {
	want := map[string]uint64{
		"random20/16/fork-join/vo=false":        0x3a6608cf397620c3,
		"random20/16/fork-join/vo=true":         0xbb266cd97520fc56,
		"random20/16/level-sync/vo=false":       0x3a6608cf397620c3,
		"random20/16/scalapack-model/vo=false":  0x3a6608cf397620c3,
		"random20/16/sequential/vo=false":       0x3a6608cf397620c3,
		"random20/16/sequential/vo=true":        0xbb266cd97520fc56,
		"random20/16/task-flow/vo=false":        0x3a6608cf397620c3,
		"random20/16/task-flow/vo=true":         0xc61dfe742681466d,
		"random20/25/fork-join/vo=false":        0x94b2dbcb86d4b9ae,
		"random20/25/level-sync/vo=false":       0x94b2dbcb86d4b9ae,
		"random20/25/scalapack-model/vo=false":  0x94b2dbcb86d4b9ae,
		"random20/25/sequential/vo=false":       0x94b2dbcb86d4b9ae,
		"random20/25/task-flow/vo=false":        0x94b2dbcb86d4b9ae,
		"random300/16/fork-join/vo=false":       0x908d8f1932406b4f,
		"random300/16/fork-join/vo=true":        0xa02399896f136039,
		"random300/16/level-sync/vo=false":      0xb2c262f6adef8899,
		"random300/16/scalapack-model/vo=false": 0xb2c262f6adef8899,
		"random300/16/sequential/vo=false":      0x908d8f1932406b4f,
		"random300/16/sequential/vo=true":       0xa02399896f136039,
		"random300/16/task-flow/vo=false":       0xb2c262f6adef8899,
		"random300/16/task-flow/vo=true":        0x5512bd086e15098,
		"random300/25/fork-join/vo=false":       0x52f7d18c80edfa97,
		"random300/25/fork-join/vo=true":        0xa02399896f136039,
		"random300/25/level-sync/vo=false":      0x6556983a0ac34411,
		"random300/25/scalapack-model/vo=false": 0x6556983a0ac34411,
		"random300/25/sequential/vo=false":      0x52f7d18c80edfa97,
		"random300/25/sequential/vo=true":       0xa02399896f136039,
		"random300/25/task-flow/vo=false":       0x6556983a0ac34411,
		"random300/25/task-flow/vo=true":        0x37c8980f2e5dbd23,
		"w21-300/16/fork-join/vo=false":         0xb0b7f84576032142,
		"w21-300/16/fork-join/vo=true":          0x75a38c5f084b2dcd,
		"w21-300/16/level-sync/vo=false":        0xb0b7f84576032142,
		"w21-300/16/scalapack-model/vo=false":   0xb0b7f84576032142,
		"w21-300/16/sequential/vo=false":        0xb0b7f84576032142,
		"w21-300/16/sequential/vo=true":         0x75a38c5f084b2dcd,
		"w21-300/16/task-flow/vo=false":         0xb0b7f84576032142,
		"w21-300/16/task-flow/vo=true":          0x4f1d8092bb400801,
		"w21-300/25/fork-join/vo=false":         0xf98570c88900b069,
		"w21-300/25/fork-join/vo=true":          0x75a38c5f084b2dcd,
		"w21-300/25/level-sync/vo=false":        0xf98570c88900b069,
		"w21-300/25/scalapack-model/vo=false":   0xf98570c88900b069,
		"w21-300/25/sequential/vo=false":        0xf98570c88900b069,
		"w21-300/25/sequential/vo=true":         0x75a38c5f084b2dcd,
		"w21-300/25/task-flow/vo=false":         0xf98570c88900b069,
		"w21-300/25/task-flow/vo=true":          0xd1255046f58b58c6,
	}
	got := smallMinPartitionHashes(t)
	if len(got) != len(want) {
		t.Errorf("%d cases, want %d", len(got), len(want))
	}
	for k, h := range got {
		if w, ok := want[k]; !ok || h != w {
			t.Errorf("%s: hash %#x, want %#x", k, h, w)
		}
	}
}

// smallMinPartitionHashes solves each case of TestSmallMinPartitionKeepsBits
// and returns the FNV-64a hash of its λ and V bits per case.
func smallMinPartitionHashes(t *testing.T) map[string]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	rd, re := randTridiag(rng, 300)
	wd, we := gluedW21(rng, 300)
	sd, se := randTridiag(rng, 20)
	mats := []struct {
		name string
		d, e []float64
	}{{"random300", rd, re}, {"w21-300", wd, we}, {"random20", sd, se}}
	got := map[string]uint64{}
	for _, m := range mats {
		n := len(m.d)
		for _, mp := range []int{16, 25} {
			for _, mode := range []Mode{ModeTaskFlow, ModeLevelSync, ModeScaLAPACK, ModeForkJoin, ModeSequential} {
				for _, vo := range []bool{false, true} {
					if vo && (mode == ModeLevelSync || mode == ModeScaLAPACK || n <= mp) {
						continue
					}
					d := append([]float64(nil), m.d...)
					e := append([]float64(nil), m.e...)
					var q []float64
					if !vo {
						q = make([]float64, n*n)
					}
					if _, err := SolveDC(n, d, e, q, n, &Options{Mode: mode, Workers: 2, MinPartition: mp, ValuesOnly: vo}); err != nil {
						t.Fatalf("%s minpart %d %s values-only=%v: %v", m.name, mp, mode, vo, err)
					}
					h := fnv.New64a()
					var b [8]byte
					for _, v := range append(d, q...) {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
						h.Write(b[:])
					}
					got[fmt.Sprintf("%s/%d/%s/vo=%v", m.name, mp, mode, vo)] = h.Sum64()
				}
			}
		}
	}
	return got
}
