package main

import (
	"math"
	"testing"
	"time"
)

// The benchmark also runs selfTest at the start of every run; this test
// lets the checkers be exercised on their own:
//
//	cd perfbench && go test .
func TestCheckersRejectCorruption(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its argument")
	}
}

func TestHostAdjust(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := &hostClock{
		at:   []time.Time{t0, t0.Add(10 * time.Second), t0.Add(60 * time.Second)},
		took: []float64{probeNominal, 2 * probeNominal, 2 * probeNominal},
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Second, 1.5 * probeNominal},    // the first two probes are in the window
		{40 * time.Second, 2 * probeNominal},  // none in the window: the nearest
		{time.Minute, 2 * probeNominal},       // only the last
		{5 * time.Second, 1.5 * probeNominal}, // the first two again
		{-time.Minute, probeNominal},          // before every probe: the first
	} {
		if got := h.probeAt(t0.Add(c.at)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("probeAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	// Two seconds around t0+60s, where the host runs at half its
	// nominal speed, are one second at nominal speed.
	if got := h.adjust(span{t0.Add(59 * time.Second), 2 * time.Second}); math.Abs(got-1) > 1e-9 {
		t.Errorf("adjust = %v, want 1", got)
	}
}
