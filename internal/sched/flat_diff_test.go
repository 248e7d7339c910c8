package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fastsched/internal/dag"
)

// refValidateFlat is ValidateFlat as it was with a comparison sort
// (sort.Slice by processor, start, index) for the exclusivity check —
// the reference the radix-and-counting-scatter version must agree
// with, error text included.
func refValidateFlat(c *dag.CSR, f *Flat) error {
	const eps = 1e-6
	v := c.NumNodes()
	if len(f.Assign) != v || len(f.Start) != v || len(f.Finish) != v {
		return fmt.Errorf("sched: flat schedule sized %d/%d/%d, graph has %d nodes",
			len(f.Assign), len(f.Start), len(f.Finish), v)
	}
	for n := 0; n < v; n++ {
		if p := f.Assign[n]; p < 0 || int(p) >= f.Procs {
			return fmt.Errorf("sched: node %d on processor %d, have %d", n, p, f.Procs)
		}
		if f.Start[n] < -eps || math.IsNaN(f.Start[n]) {
			return fmt.Errorf("sched: node %d starts at %v", n, f.Start[n])
		}
		if d := f.Finish[n] - f.Start[n]; math.Abs(d-c.NodeW[n]) > eps {
			return fmt.Errorf("sched: node %d duration %v != weight %v", n, d, c.NodeW[n])
		}
	}
	order := make([]int32, v)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		if f.Assign[na] != f.Assign[nb] {
			return f.Assign[na] < f.Assign[nb]
		}
		if f.Start[na] != f.Start[nb] {
			return f.Start[na] < f.Start[nb]
		}
		return na < nb
	})
	prev := int32(-1)
	for _, n := range order {
		if f.Finish[n]-f.Start[n] <= eps {
			continue
		}
		if prev >= 0 && f.Assign[prev] == f.Assign[n] && f.Start[n] < f.Finish[prev]-eps {
			return fmt.Errorf("sched: overlap on PE %d: node %d [%v,%v) vs node %d [%v,%v)",
				f.Assign[n], prev, f.Start[prev], f.Finish[prev], n, f.Start[n], f.Finish[n])
		}
		prev = n
	}
	for n := 0; n < v; n++ {
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arrival := f.Finish[from]
			if f.Assign[from] != f.Assign[n] {
				arrival += c.PredW[s]
			}
			if f.Start[n] < arrival-eps {
				return fmt.Errorf("sched: precedence violated on edge %d->%d: child starts %v, message arrives %v",
					from, n, f.Start[n], arrival)
			}
		}
	}
	return nil
}

// decodeFlat builds a small graph and a flat schedule for it from a
// byte stream (zeros once it runs out): a legal list schedule in ID
// order, then up to three perturbations — shifted tasks (overlaps,
// precedence violations), -0.0 and within-eps negative starts, NaN and
// +Inf starts, out-of-range processors, copied starts (equal starts),
// and wrong durations. Weights include 0, so zero-duration tasks occur.
func decodeFlat(data []byte) (*dag.CSR, *Flat) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	v := 1 + next()%12
	procs := 1 + next()%3
	g := dag.New(v)
	for n := 0; n < v; n++ {
		g.AddNode("", float64(next()%4))
	}
	for n := 1; n < v; n++ {
		for k := next() % 3; k > 0; k-- {
			_ = g.AddEdge(dag.NodeID(next()%n), dag.NodeID(n), float64(next()%3))
		}
	}
	c := dag.BuildCSR(g)
	f := &Flat{Procs: procs, Assign: make([]int32, v), Start: make([]float64, v), Finish: make([]float64, v)}
	ready := make([]float64, procs)
	for n := 0; n < v; n++ {
		p := int32(next() % procs)
		start := ready[p]
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arrival := f.Finish[from]
			if f.Assign[from] != p {
				arrival += c.PredW[s]
			}
			start = math.Max(start, arrival)
		}
		f.Assign[n], f.Start[n], f.Finish[n] = p, start, start+c.NodeW[n]
		ready[p] = f.Finish[n]
	}
	for m := next() % 4; m > 0; m-- {
		n := next() % v
		w := c.NodeW[n]
		switch next() % 8 {
		case 0:
			f.Start[n] = math.Max(0, f.Start[n]-float64(1+next()%3))
		case 1:
			f.Start[n] = math.Copysign(0, -1)
		case 2:
			f.Start[n] = -5e-7
		case 3:
			f.Start[n] = math.NaN()
		case 4:
			f.Start[n] = math.Inf(1)
		case 5:
			f.Assign[n] = int32(procs + next()%2)
			if next()%2 == 0 {
				f.Assign[n] = -1
			}
		case 6:
			f.Start[n] = f.Start[next()%v]
		case 7:
			w += 0.5
		}
		f.Finish[n] = f.Start[n] + w
	}
	return c, f
}

// checkValidateFlatMatches fails unless ValidateFlat and the reference
// agree on f: both nil, or the same error text.
func checkValidateFlatMatches(t *testing.T, c *dag.CSR, f *Flat) error {
	t.Helper()
	got, want := ValidateFlat(c, f), refValidateFlat(c, f)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ValidateFlat = %v, reference = %v\nassign %v\nstart %v\nfinish %v",
			got, want, f.Assign, f.Start, f.Finish)
	}
	return want
}

// TestValidateFlatMatchesReference is the differential test of the
// linear-time exclusivity check: on random small flats — legal ones and
// every perturbation decodeFlat makes — ValidateFlat returns exactly
// what the comparison-sort reference returns.
func TestValidateFlatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	outcomes := map[string]int{}
	data := make([]byte, 96)
	for trial := 0; trial < 20000; trial++ {
		rng.Read(data)
		c, f := decodeFlat(data)
		err := checkValidateFlatMatches(t, c, f)
		kind := "valid"
		if err != nil {
			kind = strings.Fields(err.Error())[1]
		}
		outcomes[kind]++
	}
	// Every branch of the validator must be reached: nil, out-of-range
	// processor and bad starts ("node"), overlap and precedence.
	for _, kind := range []string{"valid", "node", "overlap", "precedence"} {
		if outcomes[kind] == 0 {
			t.Fatalf("corpus never produced %q: %v", kind, outcomes)
		}
	}
}

func FuzzValidateFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 1, 2, 3, 0, 1, 1, 0, 2, 0, 1, 1, 2, 1, 0, 0, 1, 0, 1, 3, 1, 6, 2})
	f.Add([]byte{11, 2, 3, 3, 3, 0, 0, 2, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 3, 4, 1, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, fl := decodeFlat(data)
		checkValidateFlatMatches(t, c, fl)
	})
}
