package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few vCPUs of a shared machine,
// and its speed changes over minutes, by up to a factor of two, with
// little steal time showing: the paper campaign takes 13 s in one phase
// and 24 s in another. A time measured in one run then says as much
// about the host as about the program. So every run also times a fixed
// piece of work of the benchmark's own, the host probe, at short
// intervals between the operations it measures, and every time it
// reports end to end is adjusted to the probe's nominal speed:
//
//	adjusted = measured × probeNominal / probe time at that moment
//
// The probe is a sweep over a random sparse graph in CSR form — the
// same kind of memory traffic and branching as the program's KL, FM
// and coarsening loops — written here and sharing no code with the
// program, so a change to the program moves the measured times and not
// the probe. The measured times go to standard error, and the traced
// run reports the median probe time (host.probe_ms). See README,
// "Host-speed adjustment".

const (
	probeVertices = 1 << 17
	probeDegree   = 4
	probeSweeps   = 6
	// probeNominal is the probe's time on the reference host in its
	// fast state (README): adjusted times read as seconds on that host
	// running fast.
	probeNominal = 0.010
	// probeEvery is the longest stretch of measured work between two
	// probes, where the workload has a point to probe at.
	probeEvery = 250 * time.Millisecond
	// probeWindow is how far from a measured stretch the probes that
	// judge it may lie.
	probeWindow = 15 * time.Second
)

// hostClock runs the probe and turns measured times into adjusted ones.
type hostClock struct {
	off, adj    []int32
	gain        []int32
	side, side0 []uint8
	sink        int64

	at   []time.Time // midpoint of each probe
	took []float64   // its time in seconds
	cpu  []float64   // its thread CPU time in seconds
	last time.Time   // end of the last probe
}

func newHostClock() *hostClock {
	h := &hostClock{
		off:   make([]int32, probeVertices+1),
		adj:   make([]int32, 0, probeVertices*probeDegree),
		gain:  make([]int32, probeVertices),
		side:  make([]uint8, probeVertices),
		side0: make([]uint8, probeVertices),
	}
	x := uint64(0x2545F4914F6CDD1D)
	for v := 0; v < probeVertices; v++ {
		for k := 0; k < probeDegree; k++ {
			x = xorshift(x)
			h.adj = append(h.adj, int32(x%probeVertices))
		}
		h.off[v+1] = int32(len(h.adj))
		x = xorshift(x)
		h.side0[v] = uint8(x & 1)
	}
	return h
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// sweep is the probe's work: per vertex, the gain of moving it to the
// other side, and a pseudo-random move of some vertices with positive
// gain. Every call starts from the same sides, so every probe does the
// same work.
func (h *hostClock) sweep(sweeps int) {
	copy(h.side, h.side0)
	x := uint64(5)
	for s := 0; s < sweeps; s++ {
		for v := int32(0); v < probeVertices; v++ {
			var d int32
			for _, u := range h.adj[h.off[v]:h.off[v+1]] {
				if h.side[u] == h.side[v] {
					d--
				} else {
					d++
				}
			}
			h.gain[v] = d
			x = xorshift(x)
			if d > 0 && x&3 == 0 {
				h.side[v] ^= 1
			}
		}
	}
	h.sink += int64(h.gain[probeVertices/2])
}

// probe times the probe once.
func (h *hostClock) probe() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	h.sweep(1) // the probe's data back in the caches the work before it used
	c0 := threadCPU()
	t0 := time.Now()
	h.sweep(probeSweeps)
	t1 := time.Now()
	h.cpu = append(h.cpu, threadCPU()-c0)
	h.at = append(h.at, t0.Add(t1.Sub(t0)/2))
	h.took = append(h.took, t1.Sub(t0).Seconds())
	h.last = t1
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + 1e-9*float64(ts.Nsec)
}

// maybeProbe probes if probeEvery has passed since the last probe.
func (h *hostClock) maybeProbe() {
	if h.last.IsZero() || time.Since(h.last) >= probeEvery {
		h.probe()
	}
}

// probeAt is the probe time at t: the mean of the probes within
// probeWindow of t, or the nearest probe if none is. The host switches
// between a fast and a slow state every few hundred milliseconds (back
// to back, the probe reads 17–18 ms and 27–32 ms in runs), and spends
// more time in the slow one in its slow phases, which last minutes. A
// measured stretch of seconds runs through many switches; the mean of
// the probes around it estimates the share of slow time it saw.
func (h *hostClock) probeAt(t time.Time) float64 { return h.window(h.took, t) }

// probeCPUAt is probeAt for the probe's CPU time.
func (h *hostClock) probeCPUAt(t time.Time) float64 { return h.window(h.cpu, t) }

func (h *hostClock) window(took []float64, t time.Time) float64 {
	if len(h.at) == 0 {
		return math.NaN()
	}
	var in []float64
	nearest, best := 0, time.Duration(math.MaxInt64)
	for i, at := range h.at {
		d := at.Sub(t)
		if d < 0 {
			d = -d
		}
		if d <= probeWindow {
			in = append(in, took[i])
		}
		if d < best {
			nearest, best = i, d
		}
	}
	if len(in) == 0 {
		return took[nearest]
	}
	return mean(in)
}

// adjust returns the length of sp in seconds at the probe's nominal
// speed.
func (h *hostClock) adjust(sp span) float64 {
	return sp.d.Seconds() * probeNominal / h.probeAt(sp.start.Add(sp.d/2))
}

// adjustCPU returns cpu, the CPU time of the work done during sp, in
// seconds at the probe's nominal speed, judged by the probe's own CPU
// time (which, unlike its wall time, leaves out time the host did not
// run the probe).
func (h *hostClock) adjustCPU(sp span, cpu time.Duration) float64 {
	return cpu.Seconds() * probeNominal / h.probeCPUAt(sp.start.Add(sp.d/2))
}

// medianMS is the median probe time in milliseconds.
func (h *hostClock) medianMS() float64 { return 1e3 * median(h.took) }

// span is one measured stretch of work.
type span struct {
	start time.Time
	d     time.Duration
}

// setTimes sets the time metrics of an untraced run from its measured
// set-ups and its wall and CPU times, adjusted (wall, cpu) and as
// measured (wallRaw, cpuRaw). The measured figures go to the log.
func setTimes(r *report, h *hostClock, setup []span, wall, wallRaw, cpu, cpuRaw float64) {
	adj := make([]float64, len(setup))
	raw := make([]float64, len(setup))
	for i, sp := range setup {
		adj[i], raw[i] = h.adjust(sp), sp.d.Seconds()
	}
	r.set("setup_s", median(adj))
	r.set("wall_s", wall)
	r.set("cpu_s", cpu)
	fmt.Fprintf(os.Stderr, "perfbench: measured setup_s %.4f wall_s %.3f cpu_s %.3f; host probe median %.2f ms over %d probes (nominal %.1f ms) cpu %.2f ms\n",
		median(raw), wallRaw, cpuRaw, h.medianMS(), len(h.took), 1e3*probeNominal, 1e3*median(h.cpu))
}
