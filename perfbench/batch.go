package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/anneal"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ml-sparse: independent instance sets of a few graph families,
// generated as BCSR files and mapped back through the mmap loader, and
// a fixed list of algorithms run on every graph at one thread. Seeds
// move a bisection's time by up to 40 %, so a run spends its time on
// as many instance sets as -seconds allows, each bisection once.
// wall_s and cpu_s are the number of sets times the sum, over (family,
// algorithm), of the median over the sets of the bisection's time,
// each adjusted to the host's speed at its moment (host.go).

// input is one graph family of a workload.
type input struct {
	name string // family tag used in messages and per-family metrics
	make func(r *rng.Rand) (*graph.Graph, error)
}

// batchOp is one bisection: algorithm alg on graph, seeded so that the
// traced run repeats it exactly.
type batchOp struct {
	graph  int // index into the loaded graphs
	family string
	alg    string
	seed   uint64
}

func (o batchOp) String() string { return fmt.Sprintf("%s on %s graph %d", o.alg, o.family, o.graph) }

// mixSeed derives an independent stream seed from the run seed and two
// indices.
func mixSeed(seed, a, b uint64) uint64 {
	s := rng.SplitMix64(seed ^ 0x9E3779B97F4A7C15*(a+1) ^ 0xBF58476D1CE4E5B9*(b+1))
	return s.Uint64()
}

// setupReps is how many times a run prepares its inputs; setup_s is the
// median.
const setupReps = 5

// loaded is a workload's inputs after set-up.
type loaded struct {
	graphs []*graph.Graph
	files  []*graph.CSRFile
	// Per set-up repetition: the whole set-up, and in seconds its
	// generation and mapping parts.
	setup     []span
	gen, load []float64
}

func (l *loaded) close() {
	for _, f := range l.files {
		if f != nil {
			_ = f.Close() // read-only mapping
		}
	}
}

// setupInputs prepares sets instance sets of the inputs, setupReps
// times: it generates every graph from its seed, writes it as a BCSR
// file and maps the file with graph.OpenCSRFile, which is what
// `bisect -in file.bcsr` then reads. Every repetition makes the same
// graphs; the last mappings are kept.
func setupInputs(cfg config, h *hostClock, inputs []input, sets int) (*loaded, error) {
	n := sets * len(inputs)
	l := &loaded{graphs: make([]*graph.Graph, n), files: make([]*graph.CSRFile, n)}
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // start every repetition from the same heap
		h.probe()
		var gen, load time.Duration
		t0 := time.Now()
		for i := 0; i < n; i++ {
			in := inputs[i%len(inputs)]
			t1 := time.Now()
			g, err := in.make(rng.NewFib(mixSeed(cfg.seed, 1, uint64(i))))
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", in.name, err)
			}
			gen += time.Since(t1)
			path := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d.bcsr", in.name, i))
			if l.files[i] != nil {
				_ = l.files[i].Close() // read-only mapping of the previous repetition
			}
			if err := writeBCSR(path, g); err != nil {
				return nil, err
			}
			t2 := time.Now()
			f, err := graph.OpenCSRFile(path)
			if err != nil {
				return nil, err
			}
			load += time.Since(t2)
			l.files[i], l.graphs[i] = f, f.Graph()
		}
		l.setup = append(l.setup, span{t0, time.Since(t0)})
		l.gen = append(l.gen, gen.Seconds())
		l.load = append(l.load, load.Seconds())
	}
	return l, nil
}

func writeBCSR(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteCSRFile(f, g); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// tracedSets caps the instance sets of a traced run, which bisects
// every graph twice and ends with ml-sparse's two-thread section: it
// must end within the run's time limit in the host's slow phases too.
const tracedSets = 2

// runBatch runs algs on every graph of the workload; a run makes one
// instance set per perSet seconds of -seconds (at most tracedSets in
// the traced run).
func runBatch(cfg config, r *report, inputs []input, algs []string, perSet float64) error {
	sets := rounds(cfg.seconds, perSet)
	if cfg.trace {
		sets = min(sets, tracedSets)
	}
	h := newHostClock()
	l, err := setupInputs(cfg, h, inputs, sets)
	if err != nil {
		return err
	}
	defer l.close()
	var ops []batchOp
	for gi := range l.graphs {
		for _, alg := range algs {
			ops = append(ops, batchOp{graph: gi, family: inputs[gi%len(inputs)].name, alg: alg, seed: mixSeed(cfg.seed, 2, uint64(len(ops)))})
		}
	}
	if cfg.trace {
		r.set("host.probe_ms", h.medianMS())
		r.set("gen.generate_s", median(l.gen))
		r.set("graph.load_s", median(l.load))
		return traceBatch(r, l, ops)
	}

	// One timed pass over every operation, each adjusted to the host's
	// speed at its moment: wall time by the probe's wall time, CPU time
	// by the probe's CPU time.
	var cuts []float64
	took := make([]span, len(ops))
	cpu := make([]time.Duration, len(ops))
	first := make([]*outcome, len(ops)) // nil if the operation failed
	for j, op := range ops {
		b0, err := registry(op.alg, anneal.Options{}, 1)
		if err != nil {
			return err
		}
		g := l.graphs[op.graph]
		runtime.GC() // no garbage of the previous bisection in this one's peak or time
		h.maybeProbe()
		c0 := selfCPU()
		t0 := time.Now()
		b, err := b0.Bisect(g, rng.NewFib(op.seed))
		dt := time.Since(t0)
		dc := selfCPU() - c0
		if err != nil {
			r.op(err, op.String())
			continue
		}
		o := outcome{cut: b.Cut(), sides: b.Sides()}
		r.op(checkBisection(g, o), op.String())
		first[j] = &o
		cuts = append(cuts, float64(o.cut))
		took[j], cpu[j] = span{t0, dt}, dc
	}
	h.probe()
	if len(cuts) == 0 {
		return errors.New("no bisection succeeded")
	}
	// The fixed work is every set's bisections. Its time is estimated
	// as the number of sets times, per (family, algorithm), the median
	// over the sets: one heavy draw among the sets — mlfm's pass count
	// swings the most — then moves it less than a sum would.
	type kind struct{ family, alg string }
	wallBy := map[kind][]float64{}
	rawBy := map[kind][]float64{}
	cpuBy := map[kind][]float64{}
	cpuRawBy := map[kind][]float64{}
	for j, op := range ops {
		if first[j] == nil {
			continue
		}
		k := kind{op.family, op.alg}
		wallBy[k] = append(wallBy[k], h.adjust(took[j]))
		rawBy[k] = append(rawBy[k], took[j].d.Seconds())
		cpuBy[k] = append(cpuBy[k], h.adjustCPU(took[j], cpu[j]))
		cpuRawBy[k] = append(cpuRawBy[k], cpu[j].Seconds())
	}
	nSets := float64(sets)
	var wall, wallRaw, cpuAdj, cpuRaw float64
	for k := range wallBy {
		wall += nSets * median(wallBy[k])
		wallRaw += nSets * median(rawBy[k])
		cpuAdj += nSets * median(cpuBy[k])
		cpuRaw += nSets * median(cpuRawBy[k])
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}

	// Untimed: every graph's first operation (ckl, the cheapest) again,
	// which must give the same cut and sides.
	for j, op := range ops {
		if op.alg != algs[0] {
			continue
		}
		b0, err := registry(op.alg, anneal.Options{}, 1)
		if err != nil {
			return err
		}
		b, err := b0.Bisect(l.graphs[op.graph], rng.NewFib(op.seed))
		what := op.String() + ", repeated"
		switch {
		case err != nil:
		case first[j] == nil:
			err = errors.New("the first run failed")
		default:
			err = checkSame(*first[j], outcome{cut: b.Cut(), sides: b.Sides()})
		}
		r.op(err, what)
	}

	setTimes(r, h, l.setup, wall, wallRaw, cpuAdj, cpuRaw)
	r.set("peak_rss_mb", rss)
	r.set("jobs_per_s", float64(len(ops))/wall)
	r.set("cut.mean", mean(cuts))
	return nil
}

// traceBatch is the traced run: one untraced pass as the reference,
// then the same operations through the traced compositions, which must
// reproduce every cut and side.
func traceBatch(r *report, l *loaded, ops []batchOp) error {
	ref := make([]outcome, len(ops))
	untraced := make([]float64, len(ops))
	for j, op := range ops {
		b0, err := registry(op.alg, anneal.Options{}, 1)
		if err != nil {
			return err
		}
		g := l.graphs[op.graph]
		runtime.GC() // as before every traced bisection
		t0 := time.Now()
		b, err := b0.Bisect(g, rng.NewFib(op.seed))
		untraced[j] = time.Since(t0).Seconds()
		if err != nil {
			r.op(err, op.String())
			continue
		}
		ref[j] = outcome{cut: b.Cut(), sides: b.Sides()}
		r.op(checkBisection(g, ref[j]), op.String())
	}

	tr := newTracer()
	coreS := map[string]float64{}
	cuts := map[string][]float64{}
	coarsest := map[string][]float64{}
	var levels, allCoarsest []float64
	var tracedSum, untracedSum, worstGap float64
	for j, op := range ops {
		b, kind, spec, err := tr.traced(op.alg, anneal.Options{}, 1)
		if err != nil {
			return err
		}
		g := l.graphs[op.graph]
		runtime.GC()
		res, st, err := tr.bisect(b, kind, spec, g, rng.NewFib(op.seed))
		what := "traced " + op.String()
		if err != nil {
			r.op(err, what)
			continue
		}
		o := outcome{cut: res.Cut(), sides: res.Sides()}
		err = checkBisection(g, o)
		if err == nil {
			err = checkSame(ref[j], o)
		}
		r.op(err, what)
		tracedSum += st.wall.Seconds()
		untracedSum += untraced[j]
		cuts[op.alg] = append(cuts[op.alg], float64(o.cut))
		coreS["core."+metricAlg(op.alg)+"_s"] += st.wall.Seconds()
		if kind == multilevelOp {
			// The stages tile the bisection between the probes, so
			// their sum equals its wall time unless a remainder went
			// negative and was booked as zero: a probe counted twice.
			// That is all this check can catch; the traced run's
			// total against the untraced one (trace.overhead_pct) is
			// the independent comparison.
			levels = append(levels, float64(st.levels))
			allCoarsest = append(allCoarsest, float64(st.coarsestN))
			coarsest[op.family] = append(coarsest[op.family], float64(st.coarsestN))
			gap := 100 * math.Abs(st.stageSum.Seconds()-st.wall.Seconds()) / st.wall.Seconds()
			if gap > worstGap {
				worstGap = gap
			}
			if gap > 5 {
				r.invalid("%s: stage times sum to %v of a %v bisection", what, st.stageSum, st.wall)
			}
		}
	}
	tr.report(r)
	for k, v := range coreS {
		r.set(k, v)
	}
	for alg, cs := range cuts {
		r.set("cut."+metricAlg(alg), mean(cs))
	}
	if len(levels) > 0 {
		r.set("coarsen.levels", mean(levels))
		r.set("coarsen.coarsest_n", mean(allCoarsest))
		for name, cs := range coarsest {
			r.set("coarsen.coarsest_n."+name, mean(cs))
		}
	}
	r.set("trace.overhead_pct", 100*(tracedSum/untracedSum-1))
	r.set("trace.stage_gap_pct", worstGap)
	return nil
}
