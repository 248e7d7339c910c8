// Command perfbench is fastsched's end-to-end benchmark. One process
// runs one workload in-process and prints every metric by name and
// unit, with the number of operations attempted and failed:
//
//	perfbench --workload serve-cold --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	serve-cold     POST /v1/schedule on a loopback schedd, every graph new
//	serve-hot      the same server, every timed request a result-cache hit
//	flat-1m        a 10⁶-node edge list through the arena pipeline
//	online-stream  online.Run over a Poisson job stream with two PE crashes
//
// With --trace 0 the end-to-end metrics are measured with no tracing.
// With --trace 1 the run measures the workload untraced and then traced,
// and reports the per-layer metrics: self times computed from spans
// recorded around the benchmark's own calls into the program's
// packages, plus counters and ratios. Nothing inside the program is
// instrumented.
//
// Inputs are generated from --seed before any clock starts. Every output
// is checked; a wrong output counts as a failed operation, and the
// process then exits with status 1. The last line of standard output is
// the JSON result {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit. The two catalogues below are
// the metrics BENCHMARK.json declares, in the same order; the self-test
// holds them equal.
type metricDef struct{ Name, Unit string }

// endToEnd is what a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"makespan_ratio", "ratio"},
}

// perLayer is what a --trace 1 run reports. Times are means per
// operation of the workload (request, graph or job). A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	// Serving: the request tree, measured live.
	{"http.transport_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"batch.engine_ms", "ms"},
	// Serving and online: layer calls timed by replaying each
	// operation's input through the same public functions.
	{"dag.read_json_ms", "ms"},
	{"plan.graph_key_ms", "ms"},
	{"dag.validate_ms", "ms"},
	{"plan.compile_ms", "ms"},
	{"fast.schedule_ms", "ms"},
	{"sched.validate_ms", "ms"},
	{"sched.clone_ms", "ms"},
	// Flat pipeline.
	{"dag.parse_s", "s"},
	{"dag.levels_s", "s"},
	{"fast.hier_schedule_s", "s"},
	{"sched.validate_flat_s", "s"},
	{"flat.balance", "ratio"},
	{"flat.allocs_per_node", "count"},
	// Online engine.
	{"online.run_s", "s"},
	{"online.dispatch_s", "s"},
	{"online.miss_frac", "ratio"},
	{"online.mean_response", "t"},
	// Counters, each with its base.
	{"batch.requests", "count"},
	{"batch.cache_hit_ratio", "ratio"},
	{"batch.coalesced", "count"},
	{"plan.lookups", "count"},
	{"plan.compile_hit_ratio", "ratio"},
	{"server.requests", "count"},
	{"server.rejected", "count"},
	{"fast.steps_tried", "count"},
	{"fast.accept_ratio", "ratio"},
	{"flat.graphs", "count"},
	{"hier.clusters", "count"},
	{"hier.contracted.nodes", "count"},
	{"hier.contracted.edges", "count"},
	{"online.jobs", "count"},
	{"online.tasks_dispatched", "count"},
	{"online.solo_plans", "count"},
	{"online.replans", "count"},
	{"online.tasks_aborted", "count"},
	// Trace health.
	{"trace.accounted_frac", "ratio"},
	{"trace.overrun_frac", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// accountTolerance is how far the layers' self times may stray from a
// workload's traced end-to-end time, as a share of that time, before
// the run warns on standard error: trace.accounted_frac must be at
// least 1 - accountTolerance and trace.overrun_frac at most
// accountTolerance (see finishTrace).
const accountTolerance = 0.10

// config is one run's settings: the command-line flags plus the input
// sizes, which the self-test shrinks.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Out      string // directory for spans and result records; "" writes none
	Commit   string
	sizes

	// corrupt makes every workload damage the program's outputs before
	// checking them: the self-test's proof that the checks catch a
	// wrong output.
	corrupt bool
}

// sizes are the workload dimensions. defaultSizes is the benchmark;
// the self-test uses smaller ones.
type sizes struct {
	Procs      int   // processors every scheduling request asks for
	Setups     int   // set-up repetitions; setup_s is their median
	ServeVs    []int // serving graph sizes, cycled; a repeated size is sent more often
	Sequential int   // serving requests per window sent one at a time, for latency
	Warmups    int   // throwaway cold requests in serve-cold's set-up
	HotKeys    int   // distinct (graph, seed) keys on serve-hot; divides Sequential
	FlatV      int   // nodes of the flat-1m graph
	Jobs       int   // jobs in one online stream
	Streams    int   // online streams the timed runs cycle through
}

func defaultSizes() sizes {
	return sizes{
		Procs:      8,
		Setups:     3,
		ServeVs:    []int{50, 100, 100, 200},
		Sequential: 80,
		Warmups:    32,
		HotKeys:    40,
		FlatV:      1_000_000,
		Jobs:       1000,
		Streams:    8,
	}
}

// result is what a workload hands back to main.
type result struct {
	Attempted int
	Failed    int
	Samples   int      // timing samples behind p50_ms and p90_ms
	Problems  []string // the first few failures, for standard error
	Metrics   map[string]float64
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*result, error){
	"serve-cold":    runServeCold,
	"serve-hot":     runServeHot,
	"flat-1m":       runFlat,
	"online-stream": runOnline,
}

func main() {
	cfg := config{sizes: defaultSizes()}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&cfg.Out, "out", "", "directory for span dumps and result records")
	flag.StringVar(&cfg.Commit, "commit", "unknown", "commit being measured, recorded with the result")
	flag.Parse()
	cfg.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// watchdog bounds one run's wall time: a run that hangs is killed
// rather than left to the caller's timeout. A run spends at most a few
// times --seconds measuring (a traced run measures twice, and replays),
// plus set-ups of a few seconds each.
func watchdog(seconds float64) time.Duration {
	return time.Duration((100 + 3*seconds) * float64(time.Second))
}

// run executes one workload, prints the environment record and the
// result line to w, and returns an error when the run could not
// complete or an output was wrong.
func run(cfg config, w io.Writer) error {
	runner, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.Seconds)
	}
	if cfg.Out != "" {
		if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
			return err
		}
	}
	limit := watchdog(cfg.Seconds)
	timer := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", cfg.Workload, limit)
		os.Exit(3)
	})
	defer timer.Stop()

	steal0, total0 := cpuTicks()
	res, err := runner(cfg)
	steal1, total1 := cpuTicks()
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	metrics, err := finishMetrics(cfg.Trace, res.Metrics)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, metrics}

	env := environment(cfg)
	env["latency_samples"] = res.Samples
	env["host_steal_frac"] = ratio(steal1-steal0, total1-total0)
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if cfg.Out != "" {
		rec, err := json.MarshalIndent(map[string]any{"env": env, "result": out}, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, btoi(cfg.Trace))
		if err := os.WriteFile(filepath.Join(cfg.Out, name), append(rec, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	fmt.Fprintf(w, "%s\n%s\n", envLine, line)
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", cfg.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finishMetrics selects the catalogue for the run mode and attaches
// units. Every end-to-end metric must have been measured; per-layer
// metrics a workload does not touch read 0. A metric outside the
// catalogue is a harness bug.
func finishMetrics(trace bool, got map[string]float64) (map[string]metric, error) {
	defs, zeroOK := endToEnd, false
	if trace {
		defs, zeroOK = perLayer, true
	}
	known := map[string]bool{}
	out := map[string]metric{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := got[d.Name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return out, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// environment is recorded with every result: enough to tell two hosts,
// two toolchains or two source trees apart.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"host_cpus":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     cfg.Commit,
		"source":     sourceDigest(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it does not exist). Time the hypervisor gave
// to other guests during a run is the main source of run-to-run noise
// on a shared virtual machine, so each result records its share.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// sourceDigest hashes the Go sources and module files under the working
// directory (the repository root when run as documented), so a result
// identifies the code it measured even where no commit is known.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
