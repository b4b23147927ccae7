package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// paper-campaign is the paper's own experiment: every appendix table at
// paper scale (harness.AllTables(harness.PaperScale())) with SA, CSA, KL
// and CKL, best of two starts, one thread — the campaign of
// `experiments -table all -scale paper`, run through harness.Run itself.
// The benchmark only wraps what Run is given: every table's generators,
// to time generation and to know which row each graph belongs to, and
// every algorithm column, to keep a copy of each start's result. All
// checks run after the campaign, outside its timers. An operation is
// one (instance, algorithm) cell.
//
// The campaign is 12–20 s of work on the reference host, so a run does
// it once; its 732 cells average out the inputs' variation.

const (
	paperStarts = 2 // best of two starts, the harness default
	// paperSetupReps is how many times a run builds the campaign's
	// inputs for setup_s.
	paperSetupReps = 5
)

// paperRow says where the campaign generated a graph.
type paperRow struct {
	table, row int
	width      int64 // closed-form bisection width (ladders, grids), 0 if none
}

// paperStart is one start of one cell, as its column recorded it.
type paperStart struct {
	g    *graph.Graph
	o    outcome
	wall span
	cpu  time.Duration
}

// column records every start of one algorithm column, in the order the
// harness ran them.
type column struct {
	name   string
	starts []paperStart
}

// recorder is one algorithm column as harness.Run sees it. The harness
// gives each row a fresh copy through WithWorkspace, which rebuilds the
// column's bisector with its own workspaces; Bisect runs it (through the
// tracer in the traced run) and appends a copy of the result to the log.
type recorder struct {
	b     core.Bisector
	fresh func() core.Bisector
	col   *column
	tr    *tracer // nil in the untraced run
	kind  opKind
	h     *hostClock // probes between starts; nil in the traced run
}

func (r recorder) Name() string { return r.b.Name() }

func (r recorder) Bisect(g *graph.Graph, rr *rng.Rand) (*partition.Bisection, error) {
	if r.h != nil {
		r.h.maybeProbe()
	}
	c0 := selfCPU()
	t0 := time.Now()
	var b *partition.Bisection
	var err error
	if r.tr != nil {
		b, _, err = r.tr.bisect(r.b, r.kind, false, g, rr)
	} else {
		b, err = r.b.Bisect(g, rr)
	}
	dt := time.Since(t0)
	dc := selfCPU() - c0
	if err == nil {
		r.col.starts = append(r.col.starts, paperStart{g: g, o: outcome{cut: b.Cut(), sides: b.Sides()}, wall: span{t0, dt}, cpu: dc})
	}
	return b, err
}

func (r recorder) WithWorkspace() core.Bisector {
	r.b = r.fresh()
	return r
}

func (r recorder) WithObserver(obs trace.Observer) core.Bisector {
	r.b = core.WithObserver(r.b, obs)
	return r
}

// campaign is one pass of every table through harness.Run.
type campaign struct {
	wall time.Duration // every harness.Run call, less the host probes
	adj  float64       // wall adjusted to the host's speed (s)
	// cpuFactor adjusts the campaign's CPU time: the starts' adjusted
	// CPU time over their measured CPU time.
	cpuFactor float64
	gen       time.Duration // inside the generators
	rows      map[*graph.Graph]paperRow
	cols      []*column
	results   []*harness.TableResult
}

// runCampaign runs every table with the given columns (fresh(a) builds
// column a's bisector). With a tracer, kinds gives each column's kind.
//
// With a host clock (the untraced run), the clock probes between starts
// and the campaign's time is adjusted: every start at its own moment,
// and the rest of each harness.Run call — generation and the harness —
// at the call's midpoint.
func runCampaign(seed uint64, tables []harness.Table, names []string, fresh func(a int) core.Bisector,
	tr *tracer, kinds []opKind, h *hostClock) (*campaign, error) {
	c := &campaign{rows: map[*graph.Graph]paperRow{}}
	algs := make([]core.Bisector, len(names))
	for a, name := range names {
		c.cols = append(c.cols, &column{name: name})
		rec := recorder{fresh: func() core.Bisector { return fresh(a) }, col: c.cols[a], tr: tr, h: h}
		if tr != nil {
			rec.kind = kinds[a]
		}
		algs[a] = rec.WithWorkspace()
	}
	runtime.GC()    // start the campaign from the same heap
	var rest []span // per harness.Run call, the time outside the starts and probes
	for ti, t := range tables {
		t.Specs = append([]harness.GraphSpec(nil), t.Specs...)
		for row := range t.Specs {
			spec := &t.Specs[row]
			var width int64
			if t.ID == "TL" || t.ID == "TG" {
				width = spec.Expected
			}
			generate := spec.Generate
			spec.Generate = func(r *rng.Rand) (*graph.Graph, error) {
				t0 := time.Now()
				g, err := generate(r)
				c.gen += time.Since(t0)
				if err == nil {
					c.rows[g] = paperRow{table: ti, row: row, width: width}
				}
				return g, err
			}
		}
		var probes0 int
		if h != nil {
			h.probe()
			probes0 = len(h.took)
		}
		starts0 := make([]int, len(c.cols))
		for a, col := range c.cols {
			starts0[a] = len(col.starts)
		}
		t0 := time.Now()
		res, err := harness.Run(t, harness.Config{Seed: seed, Starts: paperStarts, Algorithms: algs})
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if h != nil {
			for _, s := range h.took[probes0:] {
				d -= time.Duration(s * float64(time.Second))
			}
			other := d
			for a, col := range c.cols {
				for _, st := range col.starts[starts0[a]:] {
					other -= st.wall.d
				}
			}
			rest = append(rest, span{t0, other})
		}
		c.wall += d
		c.results = append(c.results, res)
	}
	if h != nil {
		h.probe()
		for _, sp := range rest {
			// The remainder is spread over the call; its midpoint
			// stands for it.
			c.adj += sp.d.Seconds() * probeNominal / h.probeAt(sp.start.Add(sp.d/2))
		}
		var cpu, cpuAdj float64
		for _, col := range c.cols {
			for _, st := range col.starts {
				c.adj += h.adjust(st.wall)
				cpu += st.cpu.Seconds()
				cpuAdj += h.adjustCPU(st.wall, st.cpu)
			}
		}
		c.cpuFactor = cpuAdj / cpu
	}
	return c, nil
}

// check checks every start of every cell and returns each column's kept
// (best-of-starts) cuts and cell times, cell by cell. Each cell's starts
// are checked on their own, against the closed-form width where there
// is one, and against ref's same start if ref is not nil; the row means
// of the kept cuts must equal the harness's own table.
func (c *campaign) check(r *report, ref *campaign, tables []harness.Table, what string) (best [][]float64) {
	best = make([][]float64, len(c.cols))
	for a, col := range c.cols {
		if len(col.starts) != paperStarts*len(c.rows) {
			r.invalid("%s %s: %d starts for %d instances", what, col.name, len(col.starts), len(c.rows))
			continue
		}
		rowCuts := map[paperRow][]float64{}
		for i := 0; i < len(col.starts); i += paperStarts {
			cell := col.starts[i : i+paperStarts]
			at := c.rows[cell[0].g]
			label := fmt.Sprintf("%s %s %s %s", what, tables[at.table].ID, tables[at.table].Specs[at.row].Label, col.name)
			kept := cell[0].o.cut
			var err error
			for s, st := range cell {
				if err == nil && st.g != cell[0].g {
					err = fmt.Errorf("start %d ran on another graph", s)
				}
				if err == nil {
					err = checkBisection(st.g, st.o)
				}
				if err == nil && at.width > 0 {
					err = checkAtLeast(st.o.cut, at.width)
				}
				if err == nil && ref != nil {
					err = checkSame(ref.cols[a].starts[i+s].o, st.o)
				}
				kept = min(kept, st.o.cut)
			}
			r.op(err, label)
			best[a] = append(best[a], float64(kept))
			key := paperRow{table: at.table, row: at.row}
			rowCuts[key] = append(rowCuts[key], float64(kept))
		}
		// The harness's table is built from the same starts: its row
		// means must be the means of the cuts the column recorded.
		for key, cuts := range rowCuts {
			got := c.results[key.table].Rows[key.row].Cells[col.name].Cut
			if want := mean(cuts); math.Abs(got-want) > 1e-9*math.Max(1, want) {
				r.invalid("%s %s row %d %s: harness mean cut %v, recorded %v",
					what, tables[key.table].ID, key.row, col.name, got, want)
			}
		}
	}
	return best
}

// buildPaperInputs generates every instance of the campaign once, with
// the campaign's own generators, outside the campaign.
func buildPaperInputs(seed uint64, tables []harness.Table) error {
	for ti, t := range tables {
		for row, spec := range t.Specs {
			for inst := 0; inst < max(spec.Instances, 1); inst++ {
				if _, err := spec.Generate(rng.NewFib(mixSeed(seed, uint64(ti)<<16|uint64(row), uint64(inst)))); err != nil {
					return fmt.Errorf("%s %s: %w", t.ID, spec.Label, err)
				}
			}
		}
	}
	return nil
}

func runPaper(cfg config, r *report) error {
	tables := harness.AllTables(harness.PaperScale())
	sa := harness.PeriodSA()
	paperAlgs := harness.PaperAlgorithms(sa)
	names := make([]string, len(paperAlgs))
	for a, b := range paperAlgs {
		names[a] = b.Name()
	}

	// Set-up: the campaign builds its inputs inside harness.Run, so the
	// set-up a run times is building the same inputs apart from it.
	h := newHostClock()
	var setup []span
	for rep := 0; rep < paperSetupReps; rep++ {
		runtime.GC() // start every repetition from the same heap
		h.probe()
		t0 := time.Now()
		if err := buildPaperInputs(cfg.seed, tables); err != nil {
			return err
		}
		setup = append(setup, span{t0, time.Since(t0)})
	}

	// The untraced campaign: the measurement, or the traced run's reference.
	probes0 := len(h.took)
	c0 := selfCPU()
	plain, err := runCampaign(cfg.seed, tables, names, func(a int) core.Bisector {
		return core.WithWorkspace(paperAlgs[a])
	}, nil, nil, h)
	if err != nil {
		return err
	}
	cpu := selfCPU() - c0
	best := plain.check(r, nil, tables, "")
	if !cfg.trace {
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		var all []float64
		for _, cs := range best {
			all = append(all, cs...)
		}
		// The probes are this process's CPU time too; the campaign's
		// CPU time is adjusted by the campaign's own factor.
		var probeS float64
		for _, s := range h.took[probes0:] {
			probeS += s
		}
		cpuRaw := cpu.Seconds() - probeS
		setTimes(r, h, setup, plain.adj, plain.wall.Seconds(), cpuRaw*plain.cpuFactor, cpuRaw)
		r.set("peak_rss_mb", rss)
		r.set("jobs_per_s", float64(len(all))/plain.adj)
		r.set("cut.mean", mean(all))
		return nil
	}

	// The traced campaign: the same columns rebuilt from timed parts.
	tr := newTracer()
	kinds := make([]opKind, len(names))
	for a, name := range names {
		if _, kinds[a], _, err = tr.traced(name, sa, 1); err != nil {
			return err
		}
	}
	traced, err := runCampaign(cfg.seed, tables, names, func(a int) core.Bisector {
		b, _, _, _ := tr.traced(names[a], sa, 1) // names checked above
		return b
	}, tr, kinds, nil)
	if err != nil {
		return err
	}
	tracedBest := traced.check(r, plain, tables, "traced")
	r.set("host.probe_ms", h.medianMS())
	tr.report(r)
	var inBisectors time.Duration
	for a, col := range traced.cols {
		var s time.Duration
		for _, st := range col.starts {
			s += st.wall.d
		}
		inBisectors += s
		r.set("core."+col.name+"_s", s.Seconds())
		r.set("cut."+col.name, mean(tracedBest[a]))
	}
	r.set("gen.generate_s", traced.gen.Seconds())
	r.set("harness.other_s", (traced.wall - traced.gen - inBisectors).Seconds())
	r.set("trace.overhead_pct", 100*(traced.wall.Seconds()/plain.wall.Seconds()-1))
	return traceService(cfg, r)
}
