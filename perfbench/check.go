package main

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// outcome is one bisection as the benchmark keeps it for checking: the
// cut the program reported and a private copy of the sides.
type outcome struct {
	cut   int64
	sides []uint8
}

// recount is the benchmark's own cut count: every edge {u,v} with u < v
// whose endpoints lie on different sides adds its weight.
func recount(g *graph.Graph, sides []uint8) int64 {
	var cut int64
	for u := int32(0); int(u) < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u && sides[u] != sides[e.To] {
				cut += int64(e.W)
			}
		}
	}
	return cut
}

// checkBisection verifies a result against its input: one 0/1 side per
// vertex, a reported cut equal to the recount, and, on unit-weight
// graphs, sides balanced to parity.
func checkBisection(g *graph.Graph, o outcome) error {
	if len(o.sides) != g.N() {
		return fmt.Errorf("%d sides for %d vertices", len(o.sides), g.N())
	}
	var n1 int
	for v, s := range o.sides {
		if s > 1 {
			return fmt.Errorf("vertex %d has side %d", v, s)
		}
		n1 += int(s)
	}
	if c := recount(g, o.sides); c != o.cut {
		return fmt.Errorf("reported cut %d, recounted %d", o.cut, c)
	}
	if !g.Weighted() {
		n0 := g.N() - n1
		if d := n0 - n1; d > 1 || d < -1 {
			return fmt.Errorf("unbalanced: %d vs %d vertices", n0, n1)
		}
	}
	return nil
}

// checkSame verifies that two results of the same operation agree on
// the cut and on every side.
func checkSame(a, b outcome) error {
	if a.cut != b.cut {
		return fmt.Errorf("cut %d vs %d", a.cut, b.cut)
	}
	if !bytes.Equal(a.sides, b.sides) {
		return errors.New("same cut but different sides")
	}
	return nil
}

// checkAtLeast verifies a closed-form lower bound on the bisection width
// (2 for a ladder, N for an N×N grid).
func checkAtLeast(cut, width int64) error {
	if cut < width {
		return fmt.Errorf("cut %d below the bisection width %d", cut, width)
	}
	return nil
}

// selfTest shows that every checker rejects a corrupted result: a
// flipped side, a wrong cut, unbalanced sides, a cut below a known
// width, and a service result that differs from the library's.
func selfTest() error {
	g, err := gen.Grid(6, 6)
	if err != nil {
		return err
	}
	b, err := core.KL{}.Bisect(g, rng.NewFib(7))
	if err != nil {
		return err
	}
	good := outcome{cut: b.Cut(), sides: b.Sides()}
	if err := checkBisection(g, good); err != nil {
		return fmt.Errorf("valid result rejected: %v", err)
	}
	if err := checkSame(good, outcome{cut: good.cut, sides: append([]uint8(nil), good.sides...)}); err != nil {
		return fmt.Errorf("identical results rejected: %v", err)
	}

	flipped := outcome{cut: good.cut, sides: append([]uint8(nil), good.sides...)}
	flipped.sides[0] ^= 1
	wrongCut := outcome{cut: good.cut + 1, sides: good.sides}
	unbalanced := outcome{sides: append([]uint8(nil), good.sides...)}
	moved := 0
	for v := range unbalanced.sides {
		if moved < 2 && unbalanced.sides[v] == 0 {
			unbalanced.sides[v] = 1
			moved++
		}
	}
	unbalanced.cut = recount(g, unbalanced.sides) // right cut, wrong balance
	differs := outcome{cut: good.cut, sides: append([]uint8(nil), good.sides...)}
	for v := range differs.sides {
		differs.sides[v] ^= 1 // the mirror bisection: same cut, other sides
	}

	for _, c := range []struct {
		what string
		err  error
	}{
		{"flipped side", checkBisection(g, flipped)},
		{"wrong cut", checkBisection(g, wrongCut)},
		{"unbalanced sides", checkBisection(g, unbalanced)},
		{"cut below width", checkAtLeast(5, 6)},
		{"service result differs", checkSame(good, differs)},
		{"service cut differs", checkSame(good, wrongCut)},
	} {
		if c.err == nil {
			return fmt.Errorf("%s was not detected", c.what)
		}
	}
	return nil
}
