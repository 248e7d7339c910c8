package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set under the race detector, which slows the replayed
// layer calls more than the live ones they are compared with.
var raceEnabled bool

// testSizes shrink every workload to a fraction of a second.
func testSizes() sizes {
	return sizes{
		Procs:      4,
		Setups:     2,
		ServeVs:    []int{100, 150},
		Sequential: 4,
		Warmups:    2,
		HotKeys:    4,
		FlatV:      20_000,
		Jobs:       40,
		Streams:    2,
	}
}

func testConfig(t *testing.T, workload string, trace bool) config {
	return config{Workload: workload, Seed: 7, Seconds: 0.5, Trace: trace, Out: t.TempDir(), Commit: "test", sizes: testSizes()}
}

// resultLine is the contract of the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func lastLine(t *testing.T, out []byte) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCatalogueMatchesBenchmarkJSON holds the metric catalogues and the
// workload registry equal to what BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %v, BENCHMARK.json declares %v", what, i, got[i], want[i])
			}
		}
	}
	same("endToEnd", endToEnd, decl.EndToEnd)
	same("perLayer", perLayer, decl.PerLayer)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("workloads %s, BENCHMARK.json declares %s", got, want)
	}
}

// TestWorkloadsBrief runs every workload briefly in both modes and
// checks the result line: correct, every catalogue metric present with
// its unit and a finite value, end-to-end values positive, the layer
// self times within the accounting tolerance, and the spans written.
func TestWorkloadsBrief(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, name, trace)
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				if err := run(cfg, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.Bytes())
				}
				r := lastLine(t, out.Bytes())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.Name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if !trace {
					return
				}
				acc, over := r.Metrics["trace.accounted_frac"].Value, r.Metrics["trace.overrun_frac"].Value
				if !raceEnabled && (acc < 1-accountTolerance || over > accountTolerance) {
					t.Errorf("layer self times cover %.3f of the traced time and overrun it by %.3f", acc, over)
				}
				spans, err := filepath.Glob(filepath.Join(cfg.Out, "spans-*.jsonl"))
				if err != nil || len(spans) != 1 {
					t.Errorf("span files %v (%v)", spans, err)
				}
			})
		}
	}
}

// TestAccounting checks that the accounting figures move in both
// directions: a root whose time no layer covers lowers
// trace.accounted_frac, and a replay that outlasts its live parent
// raises trace.overrun_frac without raising the coverage.
func TestAccounting(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{epoch: at(0)}
	root := tr.add("op", 1, -1, at(0), at(100), "live")
	call := tr.add("call", 1, root, at(10), at(70), "live") // 60 of the root's 100 ms
	tr.add("inner", 1, call, at(10), at(90), "replay")      // outlasts its parent by 20 ms
	res := &result{}
	if err := finishTrace(config{Workload: "test"}, tr, res, []string{"call", "inner"}); err != nil {
		t.Fatal(err)
	}
	// The layers cover 60 of 100 ms: the clamped self times are 0 for
	// call and 80 for inner, less the 20 ms overrun.
	if got := res.Metrics["trace.accounted_frac"]; math.Abs(got-0.6) > 1e-9 {
		t.Errorf("accounted_frac = %v, want 0.6", got)
	}
	if got := res.Metrics["trace.overrun_frac"]; math.Abs(got-0.2) > 1e-9 {
		t.Errorf("overrun_frac = %v, want 0.2", got)
	}
}

// TestCorruptOutputsFail damages the program's outputs — a response's
// makespan, a flat schedule's start time, an online job's placement —
// and checks that each workload reports failed operations, an incorrect
// result and an error.
func TestCorruptOutputsFail(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, name, false)
			cfg.corrupt = true
			var out bytes.Buffer
			err := run(cfg, &out)
			if err == nil {
				t.Fatal("run succeeded on corrupted outputs")
			}
			r := lastLine(t, out.Bytes())
			if r.Correct || r.Failed == 0 {
				t.Fatalf("correct=%v failed=%d after corruption", r.Correct, r.Failed)
			}
		})
	}
}

// TestCheckResponse checks the response checker on one real response
// and on damaged copies of it.
func TestCheckResponse(t *testing.T) {
	cfg := testConfig(t, "serve-cold", false)
	in, err := renderInput(cfg, streamWarm, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := startLoopback(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	rep := lb.post(lb.url, in, 1)
	if rep.err != nil || rep.status != 200 {
		t.Fatalf("post: %v, status %d", rep.err, rep.status)
	}
	if _, _, err := checkResponse(in.graph, cfg.Procs, rep.body); err != nil {
		t.Fatalf("a served response fails the check: %v", err)
	}
	for name, damage := range map[string]func([]byte) []byte{
		"makespan": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"makespan":`), []byte(`"makespan":1`), 1)
		},
		"processor out of range": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"proc":0`), []byte(`"proc":99`), 1)
		},
		"placement dropped": func(b []byte) []byte {
			i := bytes.Index(b, []byte(`{"node":`))
			j := bytes.Index(b[i:], []byte(`},`))
			return append(append([]byte(nil), b[:i]...), b[i+j+2:]...)
		},
		"start moved": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"start":0,`), []byte(`"start":0.5,`), 1)
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
	} {
		bad := damage(rep.body)
		if bytes.Equal(bad, rep.body) {
			t.Errorf("%s: damage did not change the response", name)
			continue
		}
		if _, _, err := checkResponse(in.graph, cfg.Procs, bad); err == nil {
			t.Errorf("%s: damaged response passes the check", name)
		}
	}
}

func TestCalmest(t *testing.T) {
	steal := []float64{0.2, 0, 0.01, 0.3, 0, 0.02, 0.5, 0, 0.01, 0.01}
	got := calmest(steal) // keeps 8 of 10
	want := []int{0, 1, 2, 4, 5, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("calmest = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("calmest = %v, want %v", got, want)
		}
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed operation did not reach the tail: %v", got)
	}
}
