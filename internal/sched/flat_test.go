package sched

import (
	"os"
	"strconv"
	"testing"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/workload"
)

// flatFixture builds a 4-node diamond and a legal 2-processor flat
// schedule for it: 0→{1,2}→3, unit comm except the heavy 0→2 edge.
func flatFixture(t *testing.T) (*dag.CSR, *Flat) {
	t.Helper()
	g := dag.New(4)
	n0 := g.AddNode("a", 2)
	n1 := g.AddNode("b", 3)
	n2 := g.AddNode("c", 1)
	n3 := g.AddNode("d", 2)
	g.MustAddEdge(n0, n1, 1)
	g.MustAddEdge(n0, n2, 4)
	g.MustAddEdge(n1, n3, 1)
	g.MustAddEdge(n2, n3, 1)
	f := &Flat{
		Algorithm: "test",
		Procs:     2,
		Assign:    []int32{0, 0, 1, 0},
		Start:     []float64{0, 2, 6, 8},
		Finish:    []float64{2, 5, 7, 10},
	}
	return dag.BuildCSR(g), f
}

func TestValidateFlatAccepts(t *testing.T) {
	c, f := flatFixture(t)
	if err := ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
	if f.Length() != 10 {
		t.Fatalf("length %v, want 10", f.Length())
	}
	if f.ProcsUsed() != 2 {
		t.Fatalf("procs used %d, want 2", f.ProcsUsed())
	}
	// ToSchedule must agree with the arrays and pass the rich validator.
	s := f.ToSchedule()
	if s.Length() != f.Length() {
		t.Fatalf("ToSchedule length %v != %v", s.Length(), f.Length())
	}
	if err := Validate(c.ToGraph(), s); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFlatRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(f *Flat)
	}{
		{"short arrays", func(f *Flat) { f.Assign = f.Assign[:3] }},
		{"proc out of range", func(f *Flat) { f.Assign[2] = 2 }},
		{"negative proc", func(f *Flat) { f.Assign[0] = -1 }},
		{"negative start", func(f *Flat) { f.Start[0] = -1; f.Finish[0] = 1 }},
		{"wrong duration", func(f *Flat) { f.Finish[1] = 4 }},
		{"overlap", func(f *Flat) { f.Start[1] = 1; f.Finish[1] = 4 }},
		{"precedence same proc", func(f *Flat) { f.Start[1] = 1.5; f.Finish[1] = 4.5 }},
		{"precedence missing comm", func(f *Flat) { f.Start[2] = 2; f.Finish[2] = 3 }},
		{"nan start", func(f *Flat) { f.Start[3] = nan(); f.Finish[3] = nan() }},
	}
	for _, tc := range cases {
		c, f := flatFixture(t)
		tc.mutate(f)
		if err := ValidateFlat(c, f); err == nil {
			t.Errorf("%s: invalid schedule accepted", tc.name)
		}
	}
}

// TestValidateFlatZeroDuration pins the exclusivity exemption: tasks of
// zero duration may share an instant with running work, matching
// Validate's contract for the rich representation.
func TestValidateFlatZeroDuration(t *testing.T) {
	g := dag.New(3)
	g.AddNode("a", 2)
	g.AddNode("z", 0)
	g.AddNode("b", 2)
	c := dag.BuildCSR(g)
	f := &Flat{
		Procs:  1,
		Assign: []int32{0, 0, 0},
		Start:  []float64{0, 1, 2},
		Finish: []float64{2, 1, 4},
	}
	if err := ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestValidateFlatBig checks the validator's scaling contract
// (satellite of the million-node path): a 10⁵-node layered schedule
// must validate well inside a CI-friendly time budget — the
// exclusivity check is a linear radix sort and counting scatter, never
// the all-pairs O(v²).
func TestValidateFlatBig(t *testing.T) {
	v := 100000
	if s := os.Getenv("FASTSCHED_SCALE_V"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 1 {
			v = n
		}
	}
	if testing.Short() {
		v = 10000
	}
	c, err := workload.LayeredCSR(workload.LayeredOpts{V: v, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin list schedule over 8 processors in topological order —
	// cheap to build and legal by construction.
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	const procs = 8
	f := &Flat{
		Procs:  procs,
		Assign: make([]int32, v),
		Start:  make([]float64, v),
		Finish: make([]float64, v),
	}
	ready := make([]float64, procs)
	for i, n := range order {
		p := int32(i % procs)
		f.Assign[n] = p
		start := ready[p]
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arrival := f.Finish[from]
			if f.Assign[from] != p {
				arrival += c.PredW[s]
			}
			if arrival > start {
				start = arrival
			}
		}
		f.Start[n] = start
		f.Finish[n] = start + c.NodeW[n]
		ready[p] = f.Finish[n]
	}
	begin := time.Now()
	if err := ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 5*time.Second {
		t.Fatalf("validated %d nodes in %v, budget 5s", v, d)
	}
}
