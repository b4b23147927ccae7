// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed amount of work, checks every output
// against properties computed outside the program, and prints one JSON
// line:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics (see metrics.go);
// with -trace 1 the same work runs again through timed wrappers around
// each module's public hooks and the metrics are the per-layer ones.
// The program under test is never modified: every timer sits in this
// package, around calls into core bisectors, coarsen hooks, trace
// observers and the bisectd HTTP API.
//
// Usage (from the repository root; perfbench/run.sh builds first):
//
//	perfbench -workload ml-sparse -seed 1 -seconds 30 -trace 0 \
//	    -bisectd .bench_build/bisectd -workdir .bench_build
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	workdir string // per-run scratch directory, removed at exit
	bisectd string // path of the bisectd binary (traced paper-campaign only)
}

// workload runs one workload and fills r.
type workload func(cfg config, r *report) error

var workloads = map[string]workload{
	"paper-campaign": runPaper,
	"ml-sparse":      runMLSparse,
}

func main() {
	name := flag.String("workload", "", "workload: paper-campaign | ml-sparse")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "nominal measuring time; sets the number of whole rounds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bisectd := flag.String("bisectd", "", "bisectd binary (the service section of paper-campaign's traced run)")
	workdir := flag.String("workdir", ".bench_build", "directory for inputs, state and scratch files")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traceFlag == 1, *bisectd, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, bisectd, workdir string) error {
	wl, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	cfg := config{seed: seed, seconds: seconds, trace: traced, workdir: abs, bisectd: bisectd}

	r := newReport(traced)
	// The checkers prove on every run that they reject corrupted
	// results; a checker that passes a corruption makes the run incorrect.
	if err := selfTest(); err != nil {
		r.invalid("checker self-test: %v", err)
	}
	start := time.Now()
	if err := wl(cfg, r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs: %d attempted, %d failed\n",
		name, seed, time.Since(start).Seconds(), r.attempted, r.failed)
	out, err := r.finish()
	if err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// rounds is the number of whole rounds of a workload's fixed work for
// -seconds, one round per `nominal` seconds, rounded to the nearest
// whole number and at least 1. It depends on -seconds only, never on
// measured time, so every run of one configuration does exactly the
// same work.
func rounds(seconds int, nominal float64) int {
	n := int(float64(seconds)/nominal + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
