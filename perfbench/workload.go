package main

import (
	"math/rand"

	"tridiag/eigen"
)

// Seed streams: each purpose draws its inputs from its own stream of the
// run's seed, so warm-up and set-up inputs never repeat a measured one.
const (
	streamMeasure = iota + 1
	streamWarmup
	streamSetup
	streamChain
	streamMicro
	streamArrivals
	streamVerify
)

// valuesEvery sets svc-mix's class mix: one request in each block of
// valuesEvery consecutive requests, at a seeded position, is a values
// request. The share is then exactly 20% in every run, so every run holds
// enough values samples for its p90.
const valuesEvery = 5

// request is one solve: full eigenpairs, or the values-only lane.
type request struct {
	t      eigen.Tridiagonal
	values bool
}

func (r request) class() string {
	if r.values {
		return "values"
	}
	return "full"
}

// workload is one benchmark traffic mix. request returns request idx of the
// given seed stream; the same arguments always give the same matrix.
type workload struct {
	name    string
	svc     bool
	request func(seed int64, stream, idx int) request
}

// libWorkload alternates full eigenpairs (even idx) with the values-only
// lane (odd idx), each on its own matrix of the family, so every workload
// measures both request classes.
func libWorkload(name string, gen func(int, *rand.Rand) eigen.Tridiagonal, n int) workload {
	return workload{name: name, request: func(seed int64, stream, idx int) request {
		return request{t: gen(n, requestRNG(seed, stream, idx)), values: idx%2 == 1}
	}}
}

var workloads = map[string]workload{
	"lib-lowdefl":  libWorkload("lib-lowdefl", perturbedLegendre, lowDeflN),
	"lib-highdefl": libWorkload("lib-highdefl", gluedWilkinson, highDeflN),
	"svc-mix": {name: "svc-mix", svc: true, request: func(seed int64, stream, idx int) request {
		rng := requestRNG(seed, stream, idx)
		if idx%valuesEvery == requestRNG(seed, stream, -1-idx/valuesEvery).Intn(valuesEvery) {
			return request{t: perturbedLegendre(valuesN, rng), values: true}
		}
		// The small orders take turns, so each run holds the same mix.
		return request{t: randomTridiagonal(smallNs[idx%len(smallNs)], rng)}
	}},
}
