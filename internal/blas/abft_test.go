package blas

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestPackACheckedVerifyClean: the checksum identity must hold on clean
// packed multiplies across shapes straddling the micro-tile boundaries,
// alphas, and badly scaled data — a false positive here would turn healthy
// UpdateVect panels into pointless recomputes.
func TestPackACheckedVerifyClean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []struct{ m, n, k int }{
		{1, 1, 1}, {8, 4, 16}, {7, 3, 5}, {65, 9, 31}, {129, 17, 40}, {140, 19, 127},
	}
	for _, d := range dims {
		for _, alpha := range []float64{1, -0.5, 1e300, 1e-300} {
			a := randMat(rng, d.m, d.k, d.m)
			b := randMat(rng, d.k, d.n, d.k)
			c := make([]float64, d.m*d.n)
			pa := PackAChecked(false, d.m, d.k, a, d.m)
			if !pa.Checked() {
				t.Fatalf("dims %v: PackAChecked produced an unchecked operand", d)
			}
			PackedGemm(pa, d.n, alpha, b, d.k, 0, c, d.m)
			if err := pa.Verify(d.n, alpha, b, d.k, c, d.m, "UpdateVect"); err != nil {
				t.Errorf("dims %v alpha %g: false positive on clean multiply: %v", d, alpha, err)
			}
			pa.Release()
		}
	}
}

// TestVerifyCatchesOutputFlip: a single flipped exponent bit anywhere in the
// written C panel must break the checksum identity, and the error must carry
// the corruption taxonomy the retry ladders key on.
func TestVerifyCatchesOutputFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const m, n, k = 48, 12, 32
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	for trial := 0; trial < 20; trial++ {
		c := make([]float64, m*n)
		pa := PackAChecked(false, m, k, a, m)
		PackedGemm(pa, n, 1, b, k, 0, c, m)
		idx := rng.Intn(m * n)
		c[idx] = math.Float64frombits(math.Float64bits(c[idx]) ^ (1 << 57))
		err := pa.Verify(n, 1, b, k, c, m, "UpdateVect")
		if err == nil {
			t.Fatalf("trial %d: flipped bit in C[%d] escaped verification", trial, idx)
		}
		var ce *ChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("trial %d: error %T is not a *ChecksumError", trial, err)
		}
		if ce.Col != idx/m {
			t.Errorf("trial %d: flip in column %d attributed to column %d", trial, idx/m, ce.Col)
		}
		if !ce.Corruption() || !ce.Transient() || ce.TaskClass() != "UpdateVect" {
			t.Errorf("trial %d: taxonomy wrong: corruption=%v transient=%v class=%q",
				trial, ce.Corruption(), ce.Transient(), ce.TaskClass())
		}
		// A NaN output entry makes the checksum difference NaN, which must
		// fail the bound rather than compare false against it.
		c[idx] = math.NaN()
		if err := pa.Verify(n, 1, b, k, c, m, "UpdateVect"); err == nil {
			t.Fatalf("trial %d: NaN in C[%d] escaped verification", trial, idx)
		}
		pa.Release()
	}
}

// TestVerifyCatchesPackedCorruption: corrupting the packed operand AFTER the
// checksum rows were built (the PackV fault-injection point) must surface at
// verification of the next multiply — the multiply runs on the corrupted
// data while the checksums remember the clean column sums.
func TestVerifyCatchesPackedCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const m, n, k = 40, 8, 24
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c := make([]float64, m*n)
	pa := PackAChecked(false, m, k, a, m)
	buf := pa.PackedData()
	arg, mx := 0, 0.0
	for i, v := range buf {
		if av := math.Abs(v); av > mx {
			arg, mx = i, av
		}
	}
	buf[arg] = math.Float64frombits(math.Float64bits(buf[arg]) ^ (1 << 57))
	PackedGemm(pa, n, 1, b, k, 0, c, m)
	if err := pa.Verify(n, 1, b, k, c, m, "UpdateVect"); err == nil {
		t.Fatal("corrupted packed operand escaped verification")
	}
	pa.Release()
}
