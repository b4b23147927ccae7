package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The service section drives a bisectd process (-state directory, 2
// workers) closed-loop from this process with 2 clients. Each job is
// small, so the cost of serving — HTTP, the queue, the workers, the
// graph cache and fsx persistence — dominates. Every job's result must
// equal the in-process core.BestOf of the same (graph, algorithm,
// starts, seed).

var svcInputs = []input{
	{"gnp400", func(r *rng.Rand) (*graph.Graph, error) { return gen.GNP(400, 4.0/399, r) }},
	{"breg1000", func(r *rng.Rand) (*graph.Graph, error) { return gen.BReg(1000, 8, 3, r) }},
	{"gnp2000", func(r *rng.Rand) (*graph.Graph, error) { return gen.GNP(2000, 3.0/1999, r) }},
}

var svcAlgs = []string{"kl", "ckl", "fm"}

const (
	svcInstances = 8 // graphs per family, so the job mix does not hang on one draw
	svcSeeds     = 1 // seeds per (graph, algorithm); each job repeats once per round
	svcStarts    = 2
	svcClients   = 2
	svcWorkers   = 2
	svcSetupReps = 3
	svcRounds    = 10 // 720 jobs
)

// svcSpec is one distinct job.
type svcSpec struct {
	graph int
	alg   string
	seed  uint64
}

// jobView is the part of bisectd's job object the benchmark reads.
type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	SubmittedMS int64  `json:"submitted_unix_ms"`
	StartedMS   int64  `json:"started_unix_ms"`
	Error       string `json:"error"`
	Result      *struct {
		Seconds float64 `json:"seconds"`
	} `json:"result"`
}

type jobResult struct {
	Cut   int64 `json:"cut"`
	Sides []int `json:"sides"`
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	spec                    int
	err                     error
	out                     outcome
	latency, submit, result time.Duration
	queueWaitMS, runMS      float64
}

// daemon is one running bisectd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func startDaemon(bin, state string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-state", state, "-workers", fmt.Sprint(svcWorkers))
	// The daemon must not outlive this process, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bisectd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("bisectd exited during start-up: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("bisectd did not become healthy within 10s")
		}
	}
}

// stop sends SIGTERM and waits for the process to exit (SIGKILL after
// 10 s).
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // the process may already be gone
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func postJSON(c *http.Client, url string, body []byte, want int, into any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decode(resp, want, into)
}

func getJSON(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return decode(resp, http.StatusOK, into)
}

func decode(resp *http.Response, want int, into any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: HTTP %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, into)
}

// upload posts every graph and returns the content hashes and the
// upload round-trip times.
func upload(c *http.Client, base string, bodies [][]byte) ([]string, []float64, error) {
	hashes := make([]string, len(bodies))
	var ms []float64
	for i, b := range bodies {
		var v struct {
			Graph string `json:"graph"`
		}
		t0 := time.Now()
		resp, err := c.Post(base+"/v1/graphs?format=edgelist", "text/plain", bytes.NewReader(b))
		if err != nil {
			return nil, nil, err
		}
		if err := decode(resp, http.StatusCreated, &v); err != nil {
			return nil, nil, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		hashes[i] = v.Graph
	}
	return hashes, ms, nil
}

// runJob submits one job, long-polls it to a terminal state and fetches
// its result.
func runJob(c *http.Client, base, hash string, sp svcSpec) jobRecord {
	var rec jobRecord
	body, _ := json.Marshal(map[string]any{ // a map of plain values always marshals
		"graph": hash, "algorithm": sp.alg, "starts": svcStarts, "seed": sp.seed,
	})
	t0 := time.Now()
	var v jobView
	if rec.err = postJSON(c, base+"/v1/jobs", body, http.StatusAccepted, &v); rec.err != nil {
		return rec
	}
	t1 := time.Now()
	if rec.err = getJSON(c, base+"/v1/jobs/"+v.ID+"?wait_ms=60000", &v); rec.err != nil {
		return rec
	}
	if v.State != "done" {
		rec.err = fmt.Errorf("job %s ended %s %s", v.ID, v.State, v.Error)
		return rec
	}
	t2 := time.Now()
	var res jobResult
	if rec.err = getJSON(c, base+"/v1/jobs/"+v.ID+"/result", &res); rec.err != nil {
		return rec
	}
	t3 := time.Now()
	sides := make([]uint8, len(res.Sides))
	for i, s := range res.Sides {
		sides[i] = uint8(s)
		if s != 0 && s != 1 {
			sides[i] = 2 // rejected by checkBisection
		}
	}
	rec.out = outcome{cut: res.Cut, sides: sides}
	rec.latency, rec.submit, rec.result = t3.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	rec.queueWaitMS = float64(v.StartedMS - v.SubmittedMS)
	if v.Result != nil {
		rec.runMS = v.Result.Seconds * 1e3
	}
	return rec
}

// traceService is the service section of paper-campaign's traced run
// (README, "Dropped workload: svc-persist"): bisectd with a state
// directory, svcRounds rounds of every distinct job, every job checked.
// It reports the service layer's per-layer metrics.
func traceService(cfg config, r *report) error {
	if cfg.bisectd == "" {
		return errors.New("the service section needs -bisectd")
	}
	// Inputs as the daemon will parse them: the edge-list bytes that are
	// uploaded, read back in-process for the reference runs and checks.
	n := svcInstances * len(svcInputs)
	graphs := make([]*graph.Graph, n)
	bodies := make([][]byte, n)
	for i := range graphs {
		g, err := svcInputs[i%len(svcInputs)].make(rng.NewFib(mixSeed(cfg.seed, 1, uint64(i))))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
		if graphs[i], err = graph.ReadEdgeList(bytes.NewReader(bodies[i])); err != nil {
			return err
		}
	}
	var specs []svcSpec
	for gi := range graphs {
		for _, alg := range svcAlgs {
			for k := 0; k < svcSeeds; k++ {
				specs = append(specs, svcSpec{graph: gi, alg: alg, seed: mixSeed(cfg.seed, 3, uint64(len(specs)))})
			}
		}
	}

	// The library's answer for every distinct job, timed (minimum of 3)
	// as core.bestof_ms.
	ref := make([]outcome, len(specs))
	bestofMS := make([]float64, len(specs))
	for i, sp := range specs {
		bestofMS[i] = 1e18
		for rep := 0; rep < 3; rep++ {
			b, err := core.New(sp.alg)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := core.BestOf{Inner: b, Starts: svcStarts}.Bisect(graphs[sp.graph], rng.NewFib(sp.seed))
			bestofMS[i] = min(bestofMS[i], float64(time.Since(t0).Nanoseconds())/1e6)
			if err != nil {
				return fmt.Errorf("reference %s: %w", sp.alg, err)
			}
			ref[i] = outcome{cut: res.Cut(), sides: res.Sides()}
		}
		if err := checkBisection(graphs[sp.graph], ref[i]); err != nil {
			r.invalid("library result of %s on %s: %v", sp.alg, svcInputs[sp.graph%len(svcInputs)].name, err)
		}
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * svcClients}}
	defer client.CloseIdleConnections()

	// Set-up, repeated: start the daemon on an empty state directory and
	// upload the graphs. The last daemon serves the load.
	var uploadMS []float64
	var d *daemon
	var hashes []string
	for rep := 0; rep < svcSetupReps; rep++ {
		if d != nil {
			d.stop()
		}
		state := filepath.Join(cfg.workdir, fmt.Sprintf("state-%d", rep))
		var err error
		if d, err = startDaemon(cfg.bisectd, state); err != nil {
			return err
		}
		var ms []float64
		if hashes, ms, err = upload(client, d.base, bodies); err != nil {
			d.stop()
			return err
		}
		uploadMS = append(uploadMS, ms...)
	}
	defer d.stop()

	// The load: whole rounds of every distinct job in a seeded order,
	// pulled by svcClients closed-loop clients.
	recs := make([]jobRecord, 0, svcRounds*len(specs))
	for round := 0; round < svcRounds; round++ {
		order := rng.NewFib(mixSeed(cfg.seed, 4, uint64(round))).Perm(len(specs))
		batch := make([]jobRecord, len(order))
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < svcClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(order) {
						return
					}
					sp := specs[order[i]]
					batch[i] = runJob(client, d.base, hashes[sp.graph], sp)
					batch[i].spec = order[i]
				}
			}()
		}
		wg.Wait()
		recs = append(recs, batch...)
	}

	var latency, submit, result, queue, run []float64
	for i := range recs {
		rec := &recs[i]
		sp := specs[rec.spec]
		err := rec.err
		if err == nil {
			err = checkBisection(graphs[sp.graph], rec.out)
		}
		if err == nil {
			err = checkSame(ref[rec.spec], rec.out)
		}
		r.op(err, fmt.Sprintf("job %d (%s on %s graph %d)", i, sp.alg, svcInputs[sp.graph%len(svcInputs)].name, sp.graph))
		if rec.err != nil {
			continue
		}
		latency = append(latency, float64(rec.latency.Nanoseconds())/1e6)
		submit = append(submit, float64(rec.submit.Nanoseconds())/1e6)
		result = append(result, float64(rec.result.Nanoseconds())/1e6)
		queue = append(queue, rec.queueWaitMS)
		run = append(run, rec.runMS)
	}
	if len(latency) == 0 {
		return errors.New("no job completed")
	}
	r.set("graph.upload_ms", median(uploadMS))
	r.set("service.submit_ms.p50", median(submit))
	// Job timestamps have 1 ms resolution, so the median queue wait is an
	// integer that hides any change; the mean of the differences is not.
	r.set("service.queue_wait_ms.mean", mean(queue))
	r.set("service.run_ms.p50", median(run))
	r.set("service.result_ms.p50", median(result))
	r.set("core.bestof_ms.p50", median(bestofMS))
	r.set("service.overhead_ms.p50", median(latency)-median(bestofMS))
	r.set("latency_ms.p50", median(latency))
	r.set("latency_ms.p99", quantile(latency, 0.99))
	return nil
}
