package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/obs"
	"fastsched/internal/sched"
	"fastsched/internal/workload"
)

// flatPipe is the million-node path on one reused arena: edge-list
// bytes through dag.StreamEdgeListArena, fast.Hierarchical.ScheduleCSR
// and sched.ValidateFlat.
type flatPipe struct {
	cfg   config
	input []byte
	arena *dag.ScaleArena
	hier  *fast.Hierarchical
	// levels is the last traced graph's levels replay, which its root
	// span leaves out.
	levels time.Duration
}

func newFlatPipe(cfg config, input []byte, sink obs.Sink) *flatPipe {
	a := dag.NewScaleArena()
	return &flatPipe{cfg: cfg, input: input, arena: a,
		hier: fast.NewHierarchical(fast.HierOptions{Seed: cfg.Seed, Arena: a, Metrics: sink})}
}

// graph runs one graph through the pipeline. With a tracer it records
// the graph's spans, and times dag.ComputeLevelsCompactArena — the
// first stage of ScheduleCSR — by a replay just before it. The root
// span leaves the replay's time out, so the live stages and the glue
// between them make up the root.
func (p *flatPipe) graph(tr *tracer, op int64) (*dag.CSR, *sched.Flat, error) {
	p.arena.Reset()
	start := time.Now()
	var c *dag.CSR
	var f *sched.Flat
	var err, verr error
	var parse, hier, validate [2]time.Time
	p.levels = 0
	parse[0] = time.Now()
	c, err = dag.StreamEdgeListArena(bytes.NewReader(p.input), p.arena)
	parse[1] = time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	if tr != nil {
		t0 := time.Now()
		var shell dag.CompactLevels
		l, err := c.ComputeLevelsCompactArena(&shell, p.arena)
		p.levels = time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("levels: %w", err)
		}
		p.arena.ReleaseF64(l.TLevel)
		p.arena.ReleaseF64(l.BLevel)
		p.arena.ReleaseI32(l.Order)
	}
	hier[0] = time.Now()
	f, err = p.hier.ScheduleCSR(c, p.cfg.Procs)
	hier[1] = time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("schedule: %w", err)
	}
	if p.cfg.corrupt {
		f.Start[0]++
	}
	validate[0] = time.Now()
	verr = sched.ValidateFlat(c, f)
	validate[1] = time.Now()
	end := time.Now()
	if tr != nil {
		root := tr.add("flat.graph", op, -1, start.Add(p.levels), end, "live")
		tr.add("dag.parse", op, root, parse[0], parse[1], "live")
		hid := tr.add("fast.hier_schedule", op, root, hier[0], hier[1], "live")
		tr.add("dag.levels", op, hid, hier[0], hier[0].Add(p.levels), "replay")
		tr.add("sched.validate_flat", op, root, validate[0], validate[1], "live")
	}
	return c, f, verr
}

// flatBound is the lower bound the flat makespan is divided by:
// max(computation-only critical path, total work / procs).
func flatBound(c *dag.CSR, procs int) (float64, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return 0, err
	}
	static := make([]float64, c.NumNodes())
	var cp float64
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		var st float64
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			st = math.Max(st, static[c.SuccTo[s]])
		}
		static[n] = c.NodeW[n] + st
		cp = math.Max(cp, static[n])
	}
	return math.Max(cp, c.TotalWork()/float64(procs)), nil
}

func runFlat(cfg config) (*result, error) {
	res := &result{}
	var buf bytes.Buffer
	if _, _, err := workload.WriteLayeredEdgeList(&buf, workload.LayeredOpts{
		V: cfg.FlatV, Degree: 5, Seed: subRand(cfg.Seed, streamFlat).Int64(),
	}); err != nil {
		return nil, err
	}
	input := buf.Bytes()

	// check folds one graph into the result. A pipeline error, an
	// invalid schedule or a makespan other than the first pass's fails.
	var want, lower float64
	check := func(k int, f *sched.Flat, err error) {
		res.Attempted++
		switch {
		case err != nil:
			res.fail("graph %d: %v", k, err)
		case f.Length() != want:
			res.fail("graph %d: makespan %v, set-up pass %v", k, f.Length(), want)
		}
	}

	// Set-up: a cold pass on a fresh arena, Setups times. The last
	// arena stays for the warm, timed passes.
	var setups []float64
	var p *flatPipe
	for k := 0; k < cfg.Setups; k++ {
		p = nil
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		p = newFlatPipe(cfg, input, nil)
		c, f, err := p.graph(nil, -1)
		setups = append(setups, time.Since(start).Seconds())
		if k == 0 && c != nil && f != nil {
			want = f.Length()
			var berr error
			if lower, berr = flatBound(c, cfg.Procs); berr != nil {
				return nil, berr
			}
		}
		check(-1-k, f, err)
	}

	secs := cfg.Seconds
	if cfg.Trace {
		secs /= 2
	}
	var times, steal []float64 // per graph: ms, and the host's steal share
	var busy time.Duration
	for k := 0; busy.Seconds() < secs || len(times) < 2; k++ {
		var m stealMeter
		m.start()
		start := time.Now()
		_, f, err := p.graph(nil, int64(k))
		took := time.Since(start)
		m.stop()
		busy += took
		times = append(times, ms(took))
		steal = append(steal, m.share())
		check(k, f, err)
	}

	if !cfg.Trace {
		var calm []float64
		for _, k := range calmest(steal) {
			calm = append(calm, times[k])
		}
		res.Samples = len(calm)
		res.set("setup_s", median(setups))
		res.set("ops_per_s", 1000/mean(calm))
		res.set("p50_ms", quantile(calm, 0.50))
		res.set("p90_ms", quantile(calm, 0.90))
		res.set("makespan_ratio", want/lower)
		p.input, input = nil, nil
		buf = bytes.Buffer{}
		res.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(p)
		return res, nil
	}

	// Traced half: a fresh pipeline reporting hier.* and the inner
	// search's counters, warmed by one untimed pass.
	reg := obs.NewRegistry()
	p = nil
	runtime.GC()
	p = newFlatPipe(cfg, input, reg)
	_, f, err := p.graph(nil, -1)
	check(-1, f, err)
	before := mallocs()
	_, f, err = p.graph(nil, -2)
	allocs := mallocs() - before
	check(-2, f, err)
	res.set("flat.allocs_per_node", float64(allocs)/float64(cfg.FlatV))
	res.set("flat.balance", f.Balance())
	countersBefore := flatCounters(reg)

	tr := newTracer()
	var traced []float64
	var tbusy time.Duration
	for k := 0; tbusy.Seconds() < secs || len(traced) < 2; k++ {
		start := time.Now()
		_, f, err := p.graph(tr, int64(k))
		took := time.Since(start) - p.levels // the root span's time
		tbusy += took
		traced = append(traced, ms(took))
		check(k, f, err)
	}
	graphs := float64(len(traced))
	after := flatCounters(reg)
	res.set("flat.graphs", graphs)
	for _, name := range []string{"hier.clusters", "hier.contracted.nodes", "hier.contracted.edges"} {
		res.set(name, (after[name]-countersBefore[name])/graphs)
	}
	steps := after["fast.search.steps_tried"] - countersBefore["fast.search.steps_tried"]
	res.set("fast.steps_tried", steps)
	res.set("fast.accept_ratio", ratio(after["fast.search.accepted"]-countersBefore["fast.search.accepted"], steps))

	self, _, _ := tr.selfTimes()
	for span, metric := range map[string]string{
		"dag.parse":           "dag.parse_s",
		"dag.levels":          "dag.levels_s",
		"fast.hier_schedule":  "fast.hier_schedule_s",
		"sched.validate_flat": "sched.validate_flat_s",
	} {
		res.set(metric, self[span]/1000/graphs)
	}
	res.set("trace.overhead_ms", mean(traced)-mean(times))
	return res, finishTrace(cfg, tr, res, []string{"dag.parse", "dag.levels", "fast.hier_schedule", "sched.validate_flat"})
}

func flatCounters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{"hier.clusters", "hier.contracted.nodes", "hier.contracted.edges",
		"fast.search.steps_tried", "fast.search.accepted"} {
		out[name] = float64(reg.Counter(name).Value())
	}
	return out
}
