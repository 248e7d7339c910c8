package sched

import (
	"fmt"
	"math"

	"fastsched/internal/dag"
)

// Flat is the large-graph schedule representation: three dense arrays
// indexed by node — 20 bytes per node, against the ~10x a *Schedule*
// costs with its per-processor lists and map bookkeeping. The
// hierarchical scheduler produces it directly from a CSR, and
// ValidateFlat checks it without ever materializing a *Graph.
type Flat struct {
	Algorithm string
	Procs     int       // number of processors (Assign values are < Procs)
	Assign    []int32   // processor of each node
	Start     []float64 // start time of each node
	Finish    []float64 // finish time of each node
}

// NumNodes returns the number of scheduled nodes.
func (f *Flat) NumNodes() int { return len(f.Assign) }

// Length returns the makespan.
func (f *Flat) Length() float64 {
	var max float64
	for _, t := range f.Finish {
		if t > max {
			max = t
		}
	}
	return max
}

// Balance returns the load-balance ratio max busy-time / mean
// busy-time across the schedule's Procs processors (idle processors
// count toward the mean): 1.0 is a perfectly even spread, Procs is one
// processor carrying everything. Returns 1 for an empty schedule.
func (f *Flat) Balance() float64 {
	if f.Procs <= 0 {
		return 1
	}
	busy := make([]float64, f.Procs)
	var total, max float64
	for n, p := range f.Assign {
		busy[p] += f.Finish[n] - f.Start[n]
	}
	for _, b := range busy {
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		return 1
	}
	return max / (total / float64(f.Procs))
}

// ProcsUsed returns the number of distinct processors with work.
func (f *Flat) ProcsUsed() int {
	used := make([]bool, f.Procs)
	n := 0
	for _, p := range f.Assign {
		if !used[p] {
			used[p] = true
			n++
		}
	}
	return n
}

// ToSchedule converts to the rich *Schedule for the small-graph code
// paths (Gantt rendering, the simulator, sched.Validate).
func (f *Flat) ToSchedule() *Schedule {
	s := New(len(f.Assign))
	s.Algorithm = f.Algorithm
	for n := range f.Assign {
		s.Place(dag.NodeID(n), int(f.Assign[n]), f.Start[n], f.Finish[n])
	}
	return s
}

// ValidateFlat checks that f is a legal execution of the graph c in
// O(v + e + processors): every node assigned a processor in range, durations
// matching the node weights, no overlap among positive-duration tasks
// on a processor (checked by ordering each processor's tasks by start
// and scanning adjacent pairs — never the O(v²) all-pairs comparison),
// and every precedence edge satisfied with communication charged when
// the endpoints sit on different processors.
func ValidateFlat(c *dag.CSR, f *Flat) error {
	const eps = 1e-6
	v := c.NumNodes()
	if len(f.Assign) != v || len(f.Start) != v || len(f.Finish) != v {
		return fmt.Errorf("sched: flat schedule sized %d/%d/%d, graph has %d nodes",
			len(f.Assign), len(f.Start), len(f.Finish), v)
	}
	maxProc := int32(-1)
	for n := 0; n < v; n++ {
		p := f.Assign[n]
		if p < 0 || int(p) >= f.Procs {
			return fmt.Errorf("sched: node %d on processor %d, have %d", n, p, f.Procs)
		}
		maxProc = max(maxProc, p)
		if f.Start[n] < -eps || math.IsNaN(f.Start[n]) {
			return fmt.Errorf("sched: node %d starts at %v", n, f.Start[n])
		}
		if d := f.Finish[n] - f.Start[n]; math.Abs(d-c.NodeW[n]) > eps {
			return fmt.Errorf("sched: node %d duration %v != weight %v", n, d, c.NodeW[n])
		}
	}
	// Exclusivity: order node indices by (processor, start, index) and
	// compare neighbours — a stable radix sort by start, then a stable
	// counting scatter by processor, O(v + processors). Zero-duration
	// tasks occupy no processor time and are exempt, matching
	// Validate's contract.
	byStart := make([]int32, v)
	for i := range byStart {
		byStart[i] = int32(i)
	}
	dag.SortByKey(byStart, f.Start, dag.Ascending, nil)
	count := make([]int32, maxProc+2)
	for _, p := range f.Assign {
		count[p+1]++
	}
	for p := 1; p < len(count); p++ {
		count[p] += count[p-1]
	}
	order := make([]int32, v)
	for _, n := range byStart {
		p := f.Assign[n]
		order[count[p]] = n
		count[p]++
	}
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
	// Precedence: walk the predecessor arenas once.
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
