package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op.
// A span's self time is its duration minus the durations of its
// children.
//
// Source says how the span was timed:
//
//	"live"    around the call as the operation ran;
//	"header"  a duration the program reported (its start is placed at
//	          the parent's start);
//	"replay"  by calling the same public function again on the
//	          operation's input after the operation finished. A replay
//	          child estimates the share of its parent's live time that
//	          went to that layer.
type span struct {
	ID     int32   `json:"id"`
	Parent int32   `json:"parent"` // -1 for an operation's root
	Name   string  `json:"name"`
	Op     int64   `json:"op"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
	Source string  `json:"source"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ms converts an instant to the tracer's clock.
func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Millisecond)
}

// add records a span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name string, op int64, parent int32, start, end time.Time, source string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: t.ms(start), End: t.ms(end), Source: source})
	return id
}

// timed runs f and records it as a span under parent.
func (t *tracer) timed(name string, op int64, parent int32, source string, f func()) int32 {
	if t == nil {
		f()
		return -1
	}
	start := time.Now()
	f()
	return t.add(name, op, parent, start, time.Now(), source)
}

// selfTimes returns each span name's total self time in ms, the total
// duration of the root spans, and the overrun: the time by which spans'
// children outlast them (a replay slower than the live call it is
// attributed to), which the self times clamp away at zero.
func (t *tracer) selfTimes() (self map[string]float64, rootTotal, overrun float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	self = map[string]float64{}
	for i, s := range t.spans {
		own := s.dur() - covered[i]
		self[s.Name] += math.Max(0, own)
		overrun += math.Max(0, -own)
		if s.Parent < 0 {
			rootTotal += s.dur()
		}
	}
	return self, rootTotal, overrun
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) (err error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// finishTrace reports the tracer's health metrics, warns when the
// layers' self times do not account for the traced end-to-end time,
// and writes the spans under cfg.Out. layers names the spans whose self
// time belongs to a program layer; the rest (an operation's harness
// root) is time no layer was timed for.
//
// The two directions are reported apart, so neither hides the other:
// trace.accounted_frac is the share of the root spans' time that the
// layers cover, counting no child beyond its parent, and falls below 1
// by the time left outside every layer; trace.overrun_frac is the time
// by which children outlast their parents, as a share of the same.
func finishTrace(cfg config, t *tracer, res *result, layers []string) error {
	self, roots, overrun := t.selfTimes()
	var sum float64
	for _, name := range layers {
		sum += self[name]
	}
	// Clamping adds overrun to the self times; taking it out leaves what
	// the layers cover of the roots.
	accounted, over := ratio(sum-overrun, roots), ratio(overrun, roots)
	res.set("trace.accounted_frac", accounted)
	res.set("trace.overrun_frac", over)
	res.set("trace.spans", float64(t.len()))
	if accounted < 1-accountTolerance || over > accountTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: %s: layer self times cover %.3f of the traced time and overrun it by %.3f (tolerance %.2f)\n",
			cfg.Workload, accounted, over, accountTolerance)
	}
	if cfg.Out == "" {
		return nil
	}
	return t.write(filepath.Join(cfg.Out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed)))
}
