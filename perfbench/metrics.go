package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; every run prints every metric of its kind.
type metricDef struct{ name, unit string }

// endToEnd are what a user of the system sees. Each applies to every
// workload: an operation is one bisection (ml-sparse), one
// (table instance, algorithm) cell (paper-campaign) or one bisectd job
// (svc-persist). Times are adjusted to the host's speed (host.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median of several set-ups: inputs built/loaded, daemon started, graphs uploaded
	{"wall_s", "s"},          // time of the fixed work (README: bisections summed, the campaign, or rounds × the median round)
	{"cpu_s", "s"},           // user+sys of the working process (bisectd on svc-persist) for the fixed work
	{"peak_rss_mb", "MB"},    // peak resident set of the same process
	{"jobs_per_s", "jobs/s"}, // operations per second of wall_s
	{"cut.mean", "edges"},    // mean final cut over the workload's operations
}

// perLayer are the traced run's numbers. A layer that does not run in a
// workload reports 0.
var perLayer = []metricDef{
	{"anneal.s", "s"}, {"anneal.trials", "count"},
	{"kl.s", "s"}, {"kl.passes", "count"}, {"kl.scanned_pairs", "count"},
	{"fm.s", "s"}, {"fm.passes", "count"}, {"fm.moves", "count"},
	{"matching.s", "s"},
	{"coarsen.contract_s", "s"}, {"coarsen.project_repair_s", "s"}, {"coarsen.compact_s", "s"},
	{"coarsen.levels", "count"}, {"coarsen.coarsest_n", "vertices"},
	{"coarsen.coarsest_n.gnp", "vertices"}, {"coarsen.coarsest_n.gbreg", "vertices"},
	{"spectral.init_s", "s"},
	{"graph.load_s", "s"}, {"graph.upload_ms", "ms"},
	{"gen.generate_s", "s"},
	{"harness.other_s", "s"},
	{"core.sa_s", "s"}, {"core.csa_s", "s"}, {"core.kl_s", "s"}, {"core.ckl_s", "s"}, {"core.fm_s", "s"},
	{"core.mlkl_s", "s"}, {"core.mlfm_s", "s"}, {"core.mlkl-spec_s", "s"},
	{"core.kl_t2_s", "s"}, {"core.fm_t2_s", "s"}, {"core.ckl_t2_s", "s"},
	{"core.kl_t1_s", "s"}, {"core.fm_t1_s", "s"}, {"core.ckl_t1_s", "s"},
	{"service.submit_ms.p50", "ms"}, {"service.queue_wait_ms.mean", "ms"}, {"service.run_ms.p50", "ms"},
	{"service.result_ms.p50", "ms"}, {"core.bestof_ms.p50", "ms"}, {"service.overhead_ms.p50", "ms"},
	{"latency_ms.p50", "ms"}, {"latency_ms.p99", "ms"},
	{"cut.sa", "edges"}, {"cut.csa", "edges"}, {"cut.kl", "edges"}, {"cut.ckl", "edges"}, {"cut.fm", "edges"},
	{"cut.mlkl", "edges"}, {"cut.mlfm", "edges"}, {"cut.mlkl-spec", "edges"},
	{"trace.overhead_pct", "%"},
	{"trace.stage_gap_pct", "%"},
	{"host.probe_ms", "ms"}, // median host probe time of the traced run (host.go)
}

// report accumulates one run's outcome.
type report struct {
	traced    bool
	attempted int
	failed    int
	problems  []string // run-level check failures (not tied to one operation)
	values    map[string]float64
}

func newReport(traced bool) *report { return &report{traced: traced, values: map[string]float64{}} }

// set records a metric value; unknown names are a programming error
// caught by finish.
func (r *report) set(name string, v float64) { r.values[name] = v }

// op records one attempted operation and whether all its checks passed.
func (r *report) op(err error, what string) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// invalid records a run-level check failure.
func (r *report) invalid(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish builds the printed result. End-to-end metrics must all have
// been measured; per-layer metrics of layers the workload never entered
// read 0.
func (r *report) finish() (resultOut, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	known := map[string]bool{}
	out := resultOut{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		known[d.name] = true
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for name := range r.values {
		if !known[name] {
			return out, fmt.Errorf("metric %s is not declared for this kind of run", name)
		}
	}
	if r.attempted == 0 {
		return out, fmt.Errorf("no operation was attempted")
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	out.Correct = len(r.problems) == 0
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// selfCPU returns this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}
