package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/anneal"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ml-sparse: the four multilevel-relevant algorithms on a sparse Gnp
// whose coarsening stalls on isolated vertices and on a planted Gbreg
// that coarsens fully. One thread.
var mlSparseInputs = []input{
	{"gnp", func(r *rng.Rand) (*graph.Graph, error) { return gen.GNP(30000, 4.0/29999, r) }},
	{"gbreg", func(r *rng.Rand) (*graph.Graph, error) { return gen.BReg(50000, 64, 3, r) }},
}

var mlSparseAlgs = []string{"ckl", "mlkl", "mlfm", "mlkl+spec"}

func runMLSparse(cfg config, r *report) error {
	// One set is about 6 s of adjusted wall time; the six sets of
	// -seconds 30 average the inputs' spread.
	if err := runBatch(cfg, r, mlSparseInputs, mlSparseAlgs, 5); err != nil {
		return err
	}
	if cfg.trace {
		return traceTwoThreads(cfg, r)
	}
	return nil
}

// The two-thread section of ml-sparse's traced run: kl, fm and ckl on a
// Gnp just above the 2^15-vertex sharding threshold with mean degree
// 48. Only there do partition.ShardedMover, KL's 3-barrier swap, FM's
// proposal reduce, the par pool and sharded matching and contraction
// all run. Each bisection runs at two threads and again at one, which
// must give the same cut and sides; core.<alg>_t2_s against
// core.<alg>_t1_s is what a sharding change is judged by. These times
// carry no bound: at two threads on two shared cores they are too
// unsteady for one (README, "Dropped workload").
const denseN = 33000

var denseAlgs = []string{"kl", "fm", "ckl"}

func traceTwoThreads(cfg config, r *report) error {
	g, err := gen.GNP(denseN, 48.0/(denseN-1), rng.NewFib(mixSeed(cfg.seed, 6, 0)))
	if err != nil {
		return err
	}
	for i, alg := range denseAlgs {
		seed := mixSeed(cfg.seed, 7, uint64(i))
		var first outcome
		for _, threads := range []int{2, 1} {
			b, err := registry(alg, anneal.Options{}, threads)
			if err != nil {
				return err
			}
			runtime.GC()
			t0 := time.Now()
			res, err := b.Bisect(g, rng.NewFib(seed))
			dt := time.Since(t0)
			what := fmt.Sprintf("%s on dense Gnp at %d threads", alg, threads)
			if err != nil {
				r.op(err, what)
				continue
			}
			o := outcome{cut: res.Cut(), sides: res.Sides()}
			err = checkBisection(g, o)
			if err == nil && threads == 1 {
				err = checkSame(first, o) // one thread gives what two gave
			}
			r.op(err, what)
			first = o
			r.set(fmt.Sprintf("core.%s_t%d_s", alg, threads), dt.Seconds())
		}
	}
	return nil
}
