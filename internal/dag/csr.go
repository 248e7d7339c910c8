package dag

import (
	"fmt"
	"math"
)

// CSR is a flat compressed-sparse-row view of a weighted DAG: both
// adjacency directions as contiguous int32/float64 arenas, with no
// per-node slice headers or Node structs. It is the memory layout of
// the large-graph path — a v-node, e-edge graph costs
// 24·e + 24·v bytes regardless of shape — and the exchange type the
// streaming readers (StreamSTG, StreamEdgeList) produce without ever
// materializing a *Graph.
//
// Slot order is part of the contract: PredFrom/PredW list node n's
// predecessors in the same order g.Pred(n) stores them, and
// SuccTo/SuccW mirror g.Succ(n), so every floating-point max reduction
// over a CSR is bit-identical to the slice walk it replaces.
//
// Node IDs are stored as int32: a graph would need 2^31 nodes to
// overflow, far beyond anything the generators produce.
type CSR struct {
	PredOff  []int32   // PredOff[n]..PredOff[n+1] indexes n's predecessors; len v+1
	PredFrom []int32   // predecessor node of each pred slot; len e
	PredW    []float64 // communication cost of each pred slot; len e
	SuccOff  []int32   // SuccOff[n]..SuccOff[n+1] indexes n's successors; len v+1
	SuccTo   []int32   // successor node of each succ slot; len e
	SuccW    []float64 // communication cost of each succ slot; len e
	NodeW    []float64 // computation cost per node (dense copy); len v
}

// NumNodes returns v.
func (c *CSR) NumNodes() int { return len(c.NodeW) }

// NumEdges returns e.
func (c *CSR) NumEdges() int { return len(c.SuccTo) }

// TotalWork returns the sum of all computation costs.
func (c *CSR) TotalWork() float64 {
	var s float64
	for _, w := range c.NodeW {
		s += w
	}
	return s
}

// TotalComm returns the sum of all communication costs.
func (c *CSR) TotalComm() float64 {
	var s float64
	for _, w := range c.SuccW {
		s += w
	}
	return s
}

// BuildCSR flattens g's adjacency in stored order.
func BuildCSR(g *Graph) *CSR {
	v, e := g.NumNodes(), g.NumEdges()
	c := &CSR{
		PredOff:  make([]int32, v+1),
		PredFrom: make([]int32, 0, e),
		PredW:    make([]float64, 0, e),
		SuccOff:  make([]int32, v+1),
		SuccTo:   make([]int32, 0, e),
		SuccW:    make([]float64, 0, e),
		NodeW:    make([]float64, v),
	}
	for n := 0; n < v; n++ {
		c.PredOff[n] = int32(len(c.PredFrom))
		for _, ed := range g.Pred(NodeID(n)) {
			c.PredFrom = append(c.PredFrom, int32(ed.From))
			c.PredW = append(c.PredW, ed.Weight)
		}
		c.SuccOff[n] = int32(len(c.SuccTo))
		for _, ed := range g.Succ(NodeID(n)) {
			c.SuccTo = append(c.SuccTo, int32(ed.To))
			c.SuccW = append(c.SuccW, ed.Weight)
		}
		c.NodeW[n] = g.Weight(NodeID(n))
	}
	c.PredOff[v] = int32(len(c.PredFrom))
	c.SuccOff[v] = int32(len(c.SuccTo))
	return c
}

// ToGraph materializes the CSR as a *Graph for the small-graph code
// paths (schedulers that still take *Graph, rendering, ReadSTG). Nodes
// are labeled t<i>, the STG convention. Edges are replayed from the
// predecessor arrays — (child ascending, slot order), the CSR's
// canonical insertion order — so BuildCSR of the result reproduces a
// CSR in that order slot for slot.
func (c *CSR) ToGraph() *Graph {
	v := c.NumNodes()
	g := New(v)
	for n := 0; n < v; n++ {
		g.AddNode(fmt.Sprintf("t%d", n), c.NodeW[n])
	}
	for n := 0; n < v; n++ {
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			g.MustAddEdge(NodeID(c.PredFrom[s]), NodeID(n), c.PredW[s])
		}
	}
	return g
}

// TopoOrder returns the node indices in the package's deterministic
// topological order (Kahn's algorithm, smallest-ID-first), or ErrCycle.
func (c *CSR) TopoOrder() ([]int32, error) {
	return c.topoOrderArenaInto(make([]int32, 0, c.NumNodes()), nil)
}

// topoCheck verifies acyclicity with every scratch array — the order
// itself, the indegrees, and the ready heap — drawn from a and
// released before returning.
func (c *CSR) topoCheck(a *ScaleArena) error {
	slab := a.I32(c.NumNodes())
	_, err := c.topoOrderArenaInto(slab[:0], a)
	a.ReleaseI32(slab)
	return err
}

// topoOrderArenaInto appends c's topological order to order (empty,
// possibly with capacity) and returns it, or ErrCycle: Kahn's algorithm,
// smallest-ID-first, in int32 throughout — the package's one
// topological sort. Its two O(v) scratch arrays come from a (fresh on a
// nil arena) and are released on return; the order is the caller's.
//
// The ready set is split at a cursor that walks the IDs upward: nodes
// at or past the cursor are found by the scan itself, and only a node
// that becomes ready behind the cursor goes into the min-heap. Every
// heap entry is smaller than the cursor, so a non-empty heap's minimum
// is the smallest ready node and the emitted order is exactly the
// all-heap Kahn order. On topologically numbered input (every edge from
// a lower ID to a higher one, as the generators emit) the heap is never
// touched and the sort is O(v + e); otherwise only the nodes readied
// behind the cursor pay O(log v).
func (c *CSR) topoOrderArenaInto(order []int32, a *ScaleArena) ([]int32, error) {
	v := c.NumNodes()
	indeg := a.I32(v)
	for n := 0; n < v; n++ {
		indeg[n] = c.PredOff[n+1] - c.PredOff[n]
	}
	heapSlab := a.I32(v)
	h := &minHeap{a: heapSlab[:0]}
	cursor := int32(0)
	for {
		var n int32
		if h.len() > 0 {
			n = h.pop()
		} else {
			// > 0 rather than != 0: a node an unmirrored CSR drives
			// below zero was readied once, and the all-heap sort emits it.
			for int(cursor) < v && indeg[cursor] > 0 {
				cursor++
			}
			if int(cursor) == v {
				break
			}
			n = cursor
			cursor++
		}
		order = append(order, n)
		for _, to := range c.SuccTo[c.SuccOff[n]:c.SuccOff[n+1]] {
			d := indeg[to] - 1
			indeg[to] = d
			if d == 0 && to < cursor {
				h.push(to)
			}
		}
	}
	a.ReleaseI32(indeg)
	a.ReleaseI32(heapSlab)
	if len(order) != v {
		return nil, fmt.Errorf("dag: %w (%d of %d nodes ordered)", ErrCycle, len(order), v)
	}
	return order, nil
}

// Validate checks the CSR's structural invariants in O(v + e): array
// shapes, monotone offsets, endpoint ranges, finite non-negative
// weights, no self-loops, no duplicate edges, succ/pred mirror
// consistency (the two directions describe the same edge multiset with
// the same weights), and acyclicity. Failures carry the package's
// typed errors (ErrEdgeEndpoint, ErrSelfLoop, ErrDuplicateEdge,
// ErrBadWeight, ErrCycle) so loaders can classify them.
func (c *CSR) Validate() error {
	v := c.NumNodes()
	e := len(c.SuccTo)
	if len(c.PredOff) != v+1 || len(c.SuccOff) != v+1 {
		return fmt.Errorf("dag: csr: offset tables sized %d/%d, want %d", len(c.PredOff), len(c.SuccOff), v+1)
	}
	if len(c.PredFrom) != e || len(c.PredW) != e || len(c.SuccW) != e {
		return fmt.Errorf("dag: csr: edge arrays sized %d/%d/%d, want %d", len(c.PredFrom), len(c.PredW), len(c.SuccW), e)
	}
	if c.PredOff[0] != 0 || c.SuccOff[0] != 0 || c.PredOff[v] != int32(e) || c.SuccOff[v] != int32(e) {
		return fmt.Errorf("dag: csr: offset endpoints corrupt")
	}
	for n := 0; n < v; n++ {
		if c.PredOff[n+1] < c.PredOff[n] || c.SuccOff[n+1] < c.SuccOff[n] {
			return fmt.Errorf("dag: csr: non-monotone offsets at node %d", n)
		}
		if w := c.NodeW[n]; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("dag: %w: node %d has weight %v", ErrBadWeight, n, w)
		}
	}
	for n := 0; n < v; n++ {
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			if to < 0 || int(to) >= v {
				return fmt.Errorf("dag: %w: %d -> %d (v=%d)", ErrEdgeEndpoint, n, to, v)
			}
			if int(to) == n {
				return fmt.Errorf("dag: %w on node %d", ErrSelfLoop, n)
			}
			if w := c.SuccW[s]; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return fmt.Errorf("dag: %w: edge %d->%d has weight %v", ErrBadWeight, n, to, w)
			}
		}
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			if from < 0 || int(from) >= v {
				return fmt.Errorf("dag: %w: %d -> %d (v=%d)", ErrEdgeEndpoint, from, n, v)
			}
		}
	}
	if err := c.checkMirror(); err != nil {
		return err
	}
	return c.topoCheck(nil)
}

// checkMirror verifies that the succ and pred arenas describe the same
// weighted edge multiset and that no (from, to) pair repeats, using two
// stable counting-sort passes instead of per-edge lookups — O(v + e)
// rather than the O(Σdeg²) a nested scan would cost.
func (c *CSR) checkMirror() error {
	v, e := c.NumNodes(), c.NumEdges()
	if len(c.PredFrom) != e {
		return fmt.Errorf("dag: csr: %d pred slots vs %d succ slots", len(c.PredFrom), e)
	}
	// Pass 1: succ slots are stored grouped by `from` ascending; a
	// stable counting sort by `to` yields (to, from) order, and a second
	// stable pass by `from` yields canonical (from, to) order.
	from1 := make([]int32, e) // after pass 1: the `from` of each (to,from)-ordered edge
	to1 := make([]int32, e)
	w1 := make([]float64, e)
	count := make([]int32, v+1)
	for _, to := range c.SuccTo {
		count[to+1]++
	}
	for n := 0; n < v; n++ {
		count[n+1] += count[n]
	}
	for n := 0; n < v; n++ {
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			i := count[to]
			count[to] = i + 1
			from1[i], to1[i], w1[i] = int32(n), to, c.SuccW[s]
		}
	}
	sortedFrom := make([]int32, e)
	sortedTo := make([]int32, e)
	sortedW := make([]float64, e)
	for i := range count {
		count[i] = 0
	}
	for _, f := range from1 {
		count[f+1]++
	}
	for n := 0; n < v; n++ {
		count[n+1] += count[n]
	}
	for i := 0; i < e; i++ {
		f := from1[i]
		j := count[f]
		count[f] = j + 1
		sortedFrom[j], sortedTo[j], sortedW[j] = f, to1[i], w1[i]
	}
	for i := 1; i < e; i++ {
		if sortedFrom[i] == sortedFrom[i-1] && sortedTo[i] == sortedTo[i-1] {
			return fmt.Errorf("dag: %w: %d -> %d", ErrDuplicateEdge, sortedFrom[i], sortedTo[i])
		}
	}
	// Pass 2: pred slots are stored grouped by `to` ascending; one
	// stable counting sort by `from` yields the same canonical
	// (from, to) order, so the two sides compare elementwise.
	for i := range count {
		count[i] = 0
	}
	for _, f := range c.PredFrom {
		count[f+1]++
	}
	for n := 0; n < v; n++ {
		count[n+1] += count[n]
	}
	// Reuse pass-1 scratch as the sorted pred arrays.
	predFrom, predTo, predW := from1, to1, w1
	for n := 0; n < v; n++ {
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			f := c.PredFrom[s]
			i := count[f]
			count[f] = i + 1
			predFrom[i], predTo[i], predW[i] = f, int32(n), c.PredW[s]
		}
	}
	for i := 0; i < e; i++ {
		if predFrom[i] != sortedFrom[i] || predTo[i] != sortedTo[i] || predW[i] != sortedW[i] {
			return fmt.Errorf("dag: csr: succ/pred mismatch at canonical edge %d", i)
		}
	}
	return nil
}

// minHeap is a binary min-heap of int32 node indices: the ready set
// behind the topological sort's cursor.
type minHeap struct{ a []int32 }

func (h *minHeap) len() int { return len(h.a) }

func (h *minHeap) push(x int32) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *minHeap) pop() int32 {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
