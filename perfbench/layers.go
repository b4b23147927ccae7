package main

import (
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Per-layer timing works from outside the program. A traced bisector is
// the registry's composition rebuilt from the same public parts, with
// three kinds of probe:
//
//   - timedLeaf wraps a leaf bisector (KL, FM, SA) and times every Bisect
//     and Refine call: the coarse solve, every level's refinement, and
//     the plain runs;
//   - tracer.match wraps the coarsen.MatchFunc hook and times matching;
//   - tracer is also a trace.Observer: it counts passes, trials, moves
//     and levels from run_done/level_done events, and the time between
//     consecutive level_done events, minus the probe time inside that
//     interval, is the time of the stage the event closes (contraction,
//     coarsest-level seeding, projection plus balance repair).
//
// The probes keep each bisector's Name, WithWorkspace, WithObserver,
// WithParallel and Refine, so the traced composition does the same work
// as the registry's and returns the same bisections (checked on every
// traced run).

// opKind tells the tracer how to attribute a bisection's own time.
type opKind int

const (
	leafOp opKind = iota
	compactedOp
	multilevelOp
)

// opStats is what the tracer learned about one bisection.
type opStats struct {
	wall      time.Duration
	stageSum  time.Duration // probe time plus every derived stage
	levels    int
	coarsestN int
}

type tracer struct {
	layer  map[string]time.Duration // probe time by layer: kl, fm, anneal, matching
	counts map[string]float64       // kl.passes, fm.moves, anneal.trials, ...
	stage  map[string]time.Duration // contract, project_repair, spectral, compact

	// The bisection in progress.
	kind      opKind
	spec      bool
	last      time.Time     // last stage boundary
	since     time.Duration // probe time since the last boundary
	opProbes  time.Duration // probe time since the bisection began
	opStages  time.Duration // derived stage time since the bisection began
	levels    int
	coarsestN int
}

func newTracer() *tracer {
	return &tracer{
		layer:  map[string]time.Duration{},
		counts: map[string]float64{},
		stage:  map[string]time.Duration{},
	}
}

func (t *tracer) probe(layer string, d time.Duration) {
	t.layer[layer] += d
	t.since += d
	t.opProbes += d
}

// addStage books a derived stage. A negative remainder would mean a
// probe was counted twice; it is booked as zero, so the stage sum of the
// bisection then falls short of its wall time and the check on that sum
// fails.
func (t *tracer) addStage(name string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.stage[name] += d
	t.opStages += d
}

// Observe implements trace.Observer.
func (t *tracer) Observe(e trace.Event) {
	switch e.Type {
	case trace.TypeRunDone:
		switch e.Algo {
		case "kl":
			t.counts["kl.passes"] += float64(e.Index)
			t.counts["kl.scanned_pairs"] += float64(e.Scanned)
		case "fm":
			t.counts["fm.passes"] += float64(e.Index)
			t.counts["fm.moves"] += float64(e.Moves)
		case "sa":
			t.counts["anneal.trials"] += float64(e.Trials)
		}
	case trace.TypeLevelDone:
		if e.Algo != "coarsen" {
			return
		}
		now := time.Now()
		rest := now.Sub(t.last) - t.since
		switch e.Phase {
		case "coarsen":
			t.addStage("contract", rest)
			if t.kind == multilevelOp {
				t.levels++
			}
		case "initial":
			t.coarsestN = e.Vertices
			if t.spec {
				t.addStage("spectral", rest)
			} else {
				t.addStage("contract", rest) // the refused last contraction and the coarsest repair
			}
		case "uncoarsen":
			t.addStage("project_repair", rest)
		}
		t.last, t.since = now, 0
	}
}

// bisect runs one traced bisection and attributes its time.
func (t *tracer) bisect(b core.Bisector, kind opKind, spec bool, g *graph.Graph, r *rng.Rand) (*partition.Bisection, opStats, error) {
	t.kind, t.spec = kind, spec
	t.opProbes, t.opStages, t.since, t.levels, t.coarsestN = 0, 0, 0, 0, 0
	start := time.Now()
	t.last = start
	res, err := b.Bisect(g, r)
	now := time.Now()
	wall := now.Sub(start)
	if kind != leafOp {
		// After the last level_done: the inner refinement (a probe) and
		// the final balance repair.
		t.addStage("project_repair", now.Sub(t.last)-t.since)
	}
	if kind == compactedOp {
		t.stage["compact"] += wall - t.opProbes
	}
	return res, opStats{wall: wall, stageSum: t.opProbes + t.opStages, levels: t.levels, coarsestN: t.coarsestN}, err
}

// match wraps a coarsen.MatchFunc hook with a timer.
func (t *tracer) match(f coarsen.MatchFunc) coarsen.MatchFunc {
	return func(g *graph.Graph, r *rng.Rand) []int32 {
		t0 := time.Now()
		m := f(g, r)
		t.probe("matching", time.Since(t0))
		return m
	}
}

// timedLeaf times every Bisect and Refine call of a leaf bisector.
type timedLeaf struct {
	inner core.RefinableBisector
	layer string
	t     *tracer
}

func (l timedLeaf) Name() string { return l.inner.Name() }

func (l timedLeaf) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	t0 := time.Now()
	b, err := l.inner.Bisect(g, r)
	l.t.probe(l.layer, time.Since(t0))
	return b, err
}

func (l timedLeaf) Refine(b *partition.Bisection, r *rng.Rand) error {
	t0 := time.Now()
	err := l.inner.Refine(b, r)
	l.t.probe(l.layer, time.Since(t0))
	return err
}

func (l timedLeaf) WithWorkspace() core.Bisector {
	l.inner = core.WithWorkspace(l.inner).(core.RefinableBisector)
	return l
}

func (l timedLeaf) WithObserver(obs trace.Observer) core.Bisector {
	l.inner = core.WithObserver(l.inner, obs).(core.RefinableBisector)
	return l
}

func (l timedLeaf) WithParallel(degree int) core.Bisector {
	l.inner = core.WithParallel(l.inner, degree).(core.RefinableBisector)
	return l
}

// leafFor returns the registry leaf of an algorithm name ("kl" for
// "ckl" and "mlkl+spec") and its layer.
func leafFor(inner string, sa anneal.Options) (core.RefinableBisector, string, error) {
	switch inner {
	case "kl":
		return core.KL{}, "kl", nil
	case "fm":
		return core.FM{}, "fm", nil
	case "sa":
		return core.SA{Opts: sa}, "anneal", nil
	}
	return nil, "", fmt.Errorf("no leaf bisector %q", inner)
}

// registry returns the untraced bisector the CLI and the harness run for
// name, with a private workspace and the given thread count.
func registry(name string, sa anneal.Options, threads int) (core.Bisector, error) {
	var b core.Bisector
	switch name {
	case "sa":
		b = core.SA{Opts: sa}
	case "csa":
		b = core.Compacted{Inner: core.SA{Opts: sa}}
	default:
		var err error
		if b, err = core.New(name); err != nil {
			return nil, err
		}
	}
	return core.WithWorkspace(core.WithParallel(b, threads)), nil
}

// traced builds the traced twin of registry(name, sa, threads).
func (t *tracer) traced(name string, sa anneal.Options, threads int) (core.Bisector, opKind, bool, error) {
	kind, spec, inner := leafOp, false, name
	switch name {
	case "ckl", "csa":
		kind, inner = compactedOp, name[1:]
	case "mlkl", "mlfm":
		kind, inner = multilevelOp, name[2:]
	case "mlkl+spec":
		kind, spec, inner = multilevelOp, true, "kl"
	}
	leaf, layer, err := leafFor(inner, sa)
	if err != nil {
		return nil, 0, false, err
	}
	var probe core.Bisector = timedLeaf{inner: leaf, layer: layer, t: t}
	probe = core.WithWorkspace(core.WithParallel(probe, threads))
	rb := probe.(core.RefinableBisector)
	par := 0
	if threads > 1 {
		par = threads
	}
	var b core.Bisector
	switch kind {
	case leafOp:
		b = rb
	case compactedOp:
		ws := coarsen.NewWorkspace()
		b = core.Compacted{Inner: rb, Workspace: ws, Match: t.match(ws.RandomMaximal), ParallelDegree: par}
	case multilevelOp:
		ws := coarsen.NewWorkspace()
		b = core.Multilevel{Inner: rb, Opts: &coarsen.MultilevelOptions{
			Workspace: ws, Match: t.match(ws.RandomMaximal), SpectralInit: spec, ParallelDegree: par,
		}}
	}
	return core.WithObserver(b, t), kind, spec, nil
}

// report copies the tracer's totals into per-layer metrics.
func (t *tracer) report(r *report) {
	for _, l := range []string{"kl", "fm", "anneal", "matching"} {
		r.set(l+".s", t.layer[l].Seconds())
	}
	for name, v := range t.counts {
		r.set(name, v)
	}
	r.set("coarsen.contract_s", t.stage["contract"].Seconds())
	r.set("coarsen.project_repair_s", t.stage["project_repair"].Seconds())
	r.set("coarsen.compact_s", t.stage["compact"].Seconds())
	r.set("spectral.init_s", t.stage["spectral"].Seconds())
}

// metricAlg writes an algorithm name the way metric names carry it
// ("mlkl+spec" → "mlkl-spec").
func metricAlg(name string) string {
	out := []byte(name)
	for i, c := range out {
		if c == '+' {
			out[i] = '-'
		}
	}
	return string(out)
}
