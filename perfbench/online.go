package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"fastsched/internal/obs"
	"fastsched/internal/online"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
	"fastsched/internal/workload"
)

// stream is one online-stream input: the jobs, each job's lower bound,
// and the engine options with the crash plan.
type stream struct {
	jobs  []online.Job
	lower []float64 // lowerBound(graph, procs) per job
	opts  online.Options
}

// The online stream's offered load and deadline slack.
const (
	onlineLoad  = 0.5 // share of the capacity left after the two crashes
	onlineSlack = 3   // deadline = arrival + onlineSlack × the job's lower bound
)

// makeStream generates stream id: n jobs of 20–40 nodes. Arrivals are
// Poisson at the rate that offers onlineLoad of the capacity left after
// the two crashes; each deadline is the arrival plus onlineSlack times
// the job's own lower bound, so only contention makes a job miss.
func makeStream(cfg config, id int64, n int) (*stream, error) {
	s := &stream{jobs: make([]online.Job, n), lower: make([]float64, n)}
	rng := subRand(cfg.Seed, streamJobs<<32|id)
	var work float64
	for i := range s.jobs {
		g, err := workload.Random(workload.RandomOpts{V: 20 + rng.IntN(21), Seed: rng.Int64(), MeanInDegree: 3})
		if err != nil {
			return nil, err
		}
		s.jobs[i] = online.Job{ID: fmt.Sprintf("job-%05d", i), Tenant: fmt.Sprintf("tenant-%d", i%2), Weight: 1, Graph: g}
		work += g.TotalWork()
	}
	parallel(n, func(i int) { s.lower[i] = lowerBound(s.jobs[i].Graph, cfg.Procs) })
	const crashes = 2
	rate := onlineLoad * float64(cfg.Procs-crashes) / (work / float64(n))
	arrivals, err := workload.Arrivals(workload.ArrivalOpts{N: n, Rate: rate, Seed: rng.Int64()})
	if err != nil {
		return nil, err
	}
	for i := range s.jobs {
		if s.lower[i] <= 0 {
			return nil, fmt.Errorf("job %d: no lower bound", i)
		}
		s.jobs[i].Arrival = arrivals[i]
		s.jobs[i].Deadline = arrivals[i] + onlineSlack*s.lower[i]
	}
	// Two distinct PEs crash, at seeded times in the first half of the
	// stream.
	crng := subRand(cfg.Seed, streamCrashes<<32|id)
	horizon := arrivals[n-1]
	first := crng.IntN(cfg.Procs)
	second := (first + 1 + crng.IntN(cfg.Procs-1)) % cfg.Procs
	s.opts = online.Options{
		Procs:     cfg.Procs,
		Policy:    "edf",
		Algorithm: "fast", // replayOnline replays the delegate with fastScheduler
		Seed:      cfg.Seed,
		Faults: &sim.FaultPlan{Crashes: []sim.Crash{
			{Proc: first, Time: horizon * (0.1 + 0.2*crng.Float64())},
			{Proc: second, Time: horizon * (0.3 + 0.2*crng.Float64())},
		}},
	}
	return s, nil
}

// checkReport checks one run: every job completed, every job's realized
// schedule valid for its graph, and the JSONL trace byte-identical to
// the first run's (want; nil on the first run). It returns the trace.
func checkReport(s *stream, rep *online.Report, want []byte, res *result) []byte {
	var buf bytes.Buffer
	if err := online.WriteJSONL(&buf, rep); err != nil {
		res.Attempted++
		res.fail("writing the trace: %v", err)
		return want
	}
	same := want == nil || bytes.Equal(buf.Bytes(), want)
	for i, r := range rep.Results {
		res.Attempted++
		switch {
		case !r.Completed || r.Schedule == nil:
			res.fail("job %s did not complete", r.ID)
		case !same:
			res.fail("job %s: the trace differs from the first run's", r.ID)
		default:
			if err := sched.Validate(s.jobs[i].Graph, r.Schedule); err != nil {
				res.fail("job %s: %v", r.ID, err)
			}
		}
	}
	if want == nil {
		return buf.Bytes()
	}
	return want
}

// runStream runs one stream through the online engine and times it.
func runStream(cfg config, s *stream, opts online.Options) (*online.Report, time.Time, time.Time, error) {
	start := time.Now()
	rep, err := online.Run(s.jobs, opts)
	end := time.Now()
	if err == nil && cfg.corrupt && rep.Results[0].Schedule != nil {
		// Move the first job's first task to start a unit late.
		pl := rep.Results[0].Schedule.Of(0)
		rep.Results[0].Schedule.Place(0, pl.Proc, pl.Start+1, pl.Finish)
	}
	return rep, start, end, err
}

func runOnline(cfg config) (*result, error) {
	res := &result{}
	// Stream 0 is the set-up's; the timed runs cycle through the rest.
	streams := make([]*stream, cfg.Streams+1)
	for i := range streams {
		var err error
		if streams[i], err = makeStream(cfg, int64(i), cfg.Jobs); err != nil {
			return nil, err
		}
	}
	warm, streams := streams[0], streams[1:]

	// Set-up: a run over a stream of its own, Setups times.
	var setups []float64
	var warmTrace []byte
	for k := 0; k < cfg.Setups; k++ {
		rep, start, end, err := runStream(cfg, warm, warm.opts)
		setups = append(setups, end.Sub(start).Seconds())
		if err != nil {
			return nil, err
		}
		warmTrace = checkReport(warm, rep, warmTrace, res)
	}

	secs := cfg.Seconds
	if cfg.Trace {
		secs /= 2
	}
	var perJob, steal []float64 // per run: ms per job, and the host's steal share
	var busy time.Duration
	want := make([][]byte, len(streams))          // each stream's first trace
	first := make([]*online.Report, len(streams)) // each stream's first report
	for k := 0; busy.Seconds() < secs || k < len(streams); k++ {
		i := k % len(streams)
		s := streams[i]
		var m stealMeter
		m.start()
		rep, start, end, err := runStream(cfg, s, s.opts)
		m.stop()
		took := end.Sub(start)
		if err != nil {
			return nil, err
		}
		busy += took
		perJob = append(perJob, ms(took)/float64(len(s.jobs)))
		steal = append(steal, m.share())
		want[i] = checkReport(s, rep, want[i], res)
		if first[i] == nil {
			first[i] = rep
		}
	}

	if !cfg.Trace {
		var ratios []float64
		for i, s := range streams {
			for j, r := range first[i].Results {
				ratios = append(ratios, r.Response/s.lower[j])
			}
		}
		var calm []float64
		for _, k := range calmest(steal) {
			calm = append(calm, perJob[k])
		}
		res.Samples = len(calm)
		res.set("setup_s", median(setups))
		res.set("ops_per_s", 1000/mean(calm))
		res.set("p50_ms", quantile(calm, 0.50))
		res.set("p90_ms", quantile(calm, 0.90))
		res.set("makespan_ratio", median(ratios))
		streams, warm = nil, nil
		res.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(first)
		return res, nil
	}
	var missed, jobs, completed int
	var resp float64
	for _, rep := range first {
		missed += rep.Missed
		jobs += rep.Jobs
		completed += rep.Completed
		resp += rep.MeanResp * float64(rep.Completed)
	}
	res.set("online.miss_frac", ratio(float64(missed), float64(jobs)))
	res.set("online.mean_response", ratio(resp, float64(completed)))
	return res, tracedOnline(cfg, streams, want, secs, mean(perJob), res)
}

// tracedOnline runs the stream with spans. online.run is timed live;
// plan.compile (plan.Compile over every job graph, as admission does)
// and fast.schedule (FAST's FindCompiled over the jobs the report marks
// Solo, as the whole-DAG delegation does) are replayed after each run,
// and the run's remaining self time is online.dispatch.
func tracedOnline(cfg config, streams []*stream, want [][]byte, secs, untraced float64, res *result) error {
	reg := obs.NewRegistry()
	tr := newTracer()
	var perJob []float64
	var busy time.Duration
	searchReg := obs.NewRegistry()
	for op := int64(0); busy.Seconds() < secs || op < int64(len(streams)); op++ {
		i := int(op) % len(streams)
		s := streams[i]
		opts := s.opts
		opts.Metrics = reg
		rep, start, end, err := runStream(cfg, s, opts)
		if err != nil {
			return err
		}
		busy += end.Sub(start)
		root := tr.add("online.run", op, -1, start, end, "live")
		if err := replayOnline(tr, op, root, s, rep, searchReg, op < int64(len(streams))); err != nil {
			res.Attempted++
			res.fail("run %d: replay: %v", op, err)
		}
		checkReport(s, rep, want[i], res)
		perJob = append(perJob, ms(end.Sub(start))/float64(len(s.jobs)))
	}
	runs := float64(len(perJob))
	jobs := float64(cfg.Jobs)
	self, roots, _ := tr.selfTimes()
	res.set("online.run_s", roots/1000/runs/jobs)
	res.set("online.dispatch_s", self["online.run"]/1000/runs/jobs)
	res.set("plan.compile_ms", self["plan.compile"]/runs/jobs)
	res.set("fast.schedule_ms", self["fast.schedule"]/runs/jobs)
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) / runs }
	res.set("online.jobs", c("online.jobs_arrived"))
	res.set("online.tasks_dispatched", c("online.tasks_dispatched"))
	res.set("online.solo_plans", c("online.solo_plans"))
	res.set("online.replans", c("online.replans"))
	res.set("online.tasks_aborted", c("online.tasks_aborted"))
	steps := float64(searchReg.Counter("fast.search.steps_tried").Value()) // over one run of each stream
	res.set("fast.steps_tried", steps)
	res.set("fast.accept_ratio", ratio(float64(searchReg.Counter("fast.search.accepted").Value()), steps))
	res.set("trace.overhead_ms", mean(perJob)-untraced)
	// online.dispatch is by definition the part of online.run that the
	// replays do not cover, so here the check can fail only by overrun.
	return finishTrace(cfg, tr, res, []string{"online.run", "plan.compile", "fast.schedule"})
}

// replayOnline replays one run's compilations and solo plans under
// root. A solo job untouched by crashes must finish exactly its
// replayed makespan after its arrival. With count set, the solo plans
// are also run once more, untimed, to count FAST's search steps.
func replayOnline(tr *tracer, op int64, root int32, s *stream, rep *online.Report, searchReg *obs.Registry, count bool) error {
	for i, job := range s.jobs {
		var cg *plan.CompiledGraph
		var err error
		tr.timed("plan.compile", op, root, "replay", func() { cg, err = plan.Compile(job.Graph) })
		if err != nil {
			return err
		}
		r := rep.Results[i]
		if !r.Solo {
			continue
		}
		f, err := fastScheduler(s.opts.Seed, nil)
		if err != nil {
			return err
		}
		var out *sched.Schedule
		tr.timed("fast.schedule", op, root, "replay", func() { out, err = f.FindCompiled(context.Background(), cg, s.opts.Procs) })
		if err != nil {
			return err
		}
		if r.Replans == 0 && r.Aborted == 0 {
			if got := r.Finish - r.Arrival; math.Abs(got-out.Length()) > 1e-9*math.Max(1, got) {
				return fmt.Errorf("solo job %s took %v, replayed makespan %v", r.ID, got, out.Length())
			}
		}
		if !count {
			continue
		}
		if counted, err := fastScheduler(s.opts.Seed, searchReg); err == nil {
			_, _ = counted.FindCompiled(context.Background(), cg, s.opts.Procs) // counters only; the timed run was checked
		}
	}
	return nil
}
