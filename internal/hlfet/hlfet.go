// Package hlfet implements HLFET (Highest Level First with Estimated
// Times; Adam, Chandy, Dickson 1974), one of the classical list
// scheduling algorithms in the comparison suite the FAST paper draws
// its baselines from.
//
// HLFET orders nodes by descending static level (computation-only
// b-level) and, at each step, places the ready node with the highest
// static level on the processor that allows the earliest start time
// (no insertion). Time complexity is O(p·v^2).
package hlfet

import (
	"errors"
	"math"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// Scheduler implements sched.Scheduler with the HLFET algorithm.
type Scheduler struct{}

// New returns an HLFET scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "HLFET" }

// Schedule implements sched.Scheduler. procs <= 0 is treated as one
// processor per node.
func (h *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	f, err := h.ScheduleCSR(dag.BuildCSR(g), procs)
	if err != nil {
		return nil, err
	}
	return f.ToSchedule(), nil
}

// ScheduleCompiled schedules a pre-compiled plan through its CSR;
// bit-identical to Schedule(cg.Graph, procs).
func (h *Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	f, err := h.ScheduleCSR(cg.CSR, procs)
	if err != nil {
		return nil, err
	}
	return f.ToSchedule(), nil
}

// ScheduleCSR is HLFET's one list scheduler: CSR in, flat schedule
// out, no *dag.Graph, *sched.Schedule or per-node maps. Static levels
// come from the dag level kernel and its static fold; the ready-node
// max scan and the per-processor data-arrival folds visit predecessor
// slots in stored order, so the result is a pure function of the CSR.
// procs <= 0 is treated as one processor per node.
func (*Scheduler) ScheduleCSR(c *dag.CSR, procs int) (*sched.Flat, error) {
	v := c.NumNodes()
	if v == 0 {
		return nil, errors.New("hlfet: empty graph")
	}
	l, err := c.ComputeLevelsCompactArena(nil, nil)
	if err != nil {
		return nil, err
	}
	static := c.StaticLevels(l.Order)
	if procs <= 0 {
		procs = v
	}
	f := &sched.Flat{
		Algorithm: "HLFET",
		Procs:     procs,
		Assign:    make([]int32, v),
		Start:     make([]float64, v),
		Finish:    make([]float64, v),
	}
	unschedParents := make([]int32, v)
	ready := make([]bool, v)
	readyCount := 0
	for n := 0; n < v; n++ {
		unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]
		if unschedParents[n] == 0 {
			ready[n] = true
			readyCount++
		}
	}
	procReady := make([]float64, procs) // append-only timelines: last finish
	for scheduled := 0; scheduled < v; scheduled++ {
		if readyCount == 0 {
			return nil, errors.New("hlfet: no ready node (cyclic graph?)")
		}
		listsched.ObserveReadyList(readyCount)
		// Highest static level among ready nodes; ties to smaller ID.
		best := -1
		for n := 0; n < v; n++ {
			if !ready[n] {
				continue
			}
			if best < 0 || static[n] > static[best] {
				best = n
			}
		}
		// Earliest-start processor for that node, scan order breaks
		// ties.
		proc, start := -1, 0.0
		for p := 0; p < procs; p++ {
			dat := 0.0
			for s := c.PredOff[best]; s < c.PredOff[best+1]; s++ {
				from := c.PredFrom[s]
				arr := f.Finish[from]
				if f.Assign[from] != int32(p) {
					arr += c.PredW[s]
				}
				if arr > dat {
					dat = arr
				}
			}
			st := math.Max(procReady[p], dat)
			if proc == -1 || st < start {
				proc, start = p, st
			}
		}
		w := c.NodeW[best]
		f.Assign[best] = int32(proc)
		f.Start[best] = start
		f.Finish[best] = start + w
		procReady[proc] = start + w
		ready[best] = false
		readyCount--
		for s := c.SuccOff[best]; s < c.SuccOff[best+1]; s++ {
			to := c.SuccTo[s]
			unschedParents[to]--
			if unschedParents[to] == 0 {
				ready[to] = true
				readyCount++
			}
		}
	}
	return f, nil
}
