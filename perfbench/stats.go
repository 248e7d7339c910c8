package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. +Inf values (failed operations) sort last, so
// failures push the upper quantiles up.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// finite maps +Inf (an operation that failed) to a value JSON can carry
// and no real latency reaches: the result line must stay parseable even
// when the run is incorrect.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return 1e12
	}
	return x
}

// calmShare is the share of a run's online runs or flat graphs that
// its timing figures are computed from: the ones during which the
// hypervisor took the least CPU time from the virtual machine the
// benchmark runs in. Steal slows the program by whatever the host's
// other guests are doing, and it varies from a few to over twenty per
// cent within minutes, so figures over every run or graph would partly
// measure the neighbours. The selection looks only at steal,
// never at the figures themselves.
const calmShare = 0.8

// calmest returns the indices, in order, of the calmShare of the
// windows with the least steal (ties keep the earlier window).
func calmest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := int(math.Ceil(calmShare * float64(len(idx))))
	idx = idx[:keep]
	sort.Ints(idx)
	return idx
}

// stealMeter accumulates the host's steal and total CPU ticks over the
// intervals between start and stop.
type stealMeter struct {
	steal, total float64
	s0, t0       float64
}

func (m *stealMeter) start() { m.s0, m.t0 = cpuTicks() }

func (m *stealMeter) stop() {
	s, t := cpuTicks()
	m.steal += s - m.s0
	m.total += t - m.t0
}

// share is the stolen share of the measured CPU time (0 where the host
// reports none).
func (m *stealMeter) share() float64 { return ratio(m.steal, m.total) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the live heap in MiB.
// Callers drop their references to harness inputs first, so what
// remains is program state plus the harness's small bookkeeping.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// subRand derives an independent generator for one input stream of the
// run, so adding a stream never shifts another's draws.
func subRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)))
}
