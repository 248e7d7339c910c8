// Package plan compiles task graphs into the immutable per-graph
// artifacts every scheduling run otherwise re-derives from scratch: a
// flat CSR view of the adjacency, the five level metrics, the node
// classification, the topological order, and FAST's CPN-Dominate
// priority list. A CompiledGraph is computed once per unique graph —
// behind the content-addressed Cache — and then shared read-only by any
// number of concurrent scheduling runs, so the steady-state serving
// path pays only for the work that actually depends on the request
// (seed, processor count, search budget), not for the graph analysis.
//
// Compilation is deterministic: every artifact is a pure function of
// the graph's stored node and edge order, so a run fed a CompiledGraph
// is bit-identical to a run that derives the same artifacts ad hoc
// (pinned by the differential tests in internal/batch).
package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"fastsched/internal/dag"
)

// Key is the content address of a graph: a SHA-256 over its node
// weights and adjacency in stored order. Two graphs with equal keys
// describe the same scheduling input, including the edge insertion
// order the schedulers' tie-breaks depend on.
type Key [32]byte

// keyScratch pools the serialization buffers of GraphKey so the warm
// lookup path allocates nothing.
var keyScratch = sync.Pool{New: func() any { return new([]byte) }}

// GraphKey hashes g's content: node count and weights, then each
// node's successor list exactly as stored (deliberately not
// canonicalized — schedulers' tie-breaks and FAST's random transfer
// sequence depend on edge insertion order, so structurally equal
// graphs built in different orders must not collide).
func GraphKey(g *dag.Graph) Key {
	bp := keyScratch.Get().(*[]byte)
	buf := (*bp)[:0]
	u64 := func(x uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	v := g.NumNodes()
	u64(uint64(v))
	for i := 0; i < v; i++ {
		u64(math.Float64bits(g.Weight(dag.NodeID(i))))
	}
	u64(uint64(g.NumEdges()))
	for i := 0; i < v; i++ {
		succ := g.Succ(dag.NodeID(i))
		u64(uint64(len(succ)))
		for _, e := range succ { // stored order, deliberately not sorted
			u64(uint64(e.To))
			u64(math.Float64bits(e.Weight))
		}
	}
	k := Key(sha256.Sum256(buf))
	*bp = buf
	keyScratch.Put(bp)
	return k
}

// CompiledGraph bundles every immutable per-graph artifact the
// schedulers consume. All fields are read-only after Compile; a
// CompiledGraph may be shared freely across goroutines and runs.
type CompiledGraph struct {
	Graph *dag.Graph
	Key   Key
	// CSR is the flat adjacency, shared read-only by every scheduling
	// run (PFAST workers included).
	CSR *dag.CSR
	// Levels holds the t-level, b-level, static level, ALAP table and
	// the topological order (Levels.Order) the levels were computed in.
	Levels *dag.Levels
	// Classes is the FAST CPN/IBN/OBN partition.
	Classes []dag.Class
	// CPNDominate is the paper's phase-1 priority list.
	CPNDominate []dag.NodeID
	// Blocking is the paper's blocking-node list: every non-CPN node,
	// in ID order — the neighborhood of FAST's local search.
	Blocking []dag.NodeID
}

// Compile analyzes g once, hashing it for the content address. It
// errors when the graph is empty or cyclic (ComputeLevels' contract).
func Compile(g *dag.Graph) (*CompiledGraph, error) {
	return CompileKeyed(g, GraphKey(g))
}

// CompileKeyed is Compile with a precomputed content key, so callers
// that already hashed the graph (the batch engine derives its result
// key from the same bytes) never hash twice.
func CompileKeyed(g *dag.Graph, key Key) (*CompiledGraph, error) {
	// Analysis runs on the CSR arenas, not the []Edge slices: the int32
	// kernels keep a 10⁶-node compile at O(v+e) over dense streams.
	csr := dag.BuildCSR(g)
	l, err := dag.ComputeLevelsCSR(csr)
	if err != nil {
		return nil, err
	}
	cls := dag.ClassifyCSR(csr, l)
	blocking := make([]dag.NodeID, 0, g.NumNodes())
	for i, c := range cls {
		if c != dag.CPN {
			blocking = append(blocking, dag.NodeID(i))
		}
	}
	return &CompiledGraph{
		Graph:       g,
		Key:         key,
		CSR:         csr,
		Levels:      l,
		Classes:     cls,
		CPNDominate: CPNDominateList(g, l, cls),
		Blocking:    blocking,
	}, nil
}

// CPNDominateList constructs the paper's CPN-Dominate list: critical
// path nodes in path order, each preceded by its yet-unlisted ancestors
// (larger b-levels first, ties by smaller t-level), followed by the
// out-branch nodes in decreasing b-level order.
//
// Note: the paper's §4.1 prose says OBNs are ordered by *increasing*
// b-level while the normative step (9) says *decreasing*. Decreasing is
// the only choice that keeps the list a topological order (a parent's
// b-level strictly exceeds its child's when node weights are positive),
// so decreasing is what we implement.
func CPNDominateList(g *dag.Graph, l *dag.Levels, cls []dag.Class) []dag.NodeID {
	v := g.NumNodes()
	list := make([]dag.NodeID, 0, v)
	inList := make([]bool, v)
	appendNode := func(n dag.NodeID) {
		list = append(list, n)
		inList[n] = true
	}

	// Pre-sort each node's parents by decreasing b-level, ties by
	// smaller t-level, then smaller ID: the order step (5) examines them.
	parentOrder := make([][]dag.NodeID, v)
	for i := 0; i < v; i++ {
		preds := g.Pred(dag.NodeID(i))
		ps := make([]dag.NodeID, len(preds))
		for j, e := range preds {
			ps[j] = e.From
		}
		sort.Slice(ps, func(a, b int) bool {
			if l.BLevel[ps[a]] != l.BLevel[ps[b]] {
				return l.BLevel[ps[a]] > l.BLevel[ps[b]]
			}
			if l.TLevel[ps[a]] != l.TLevel[ps[b]] {
				return l.TLevel[ps[a]] < l.TLevel[ps[b]]
			}
			return ps[a] < ps[b]
		})
		parentOrder[i] = ps
	}

	// include places n after recursively placing its unlisted ancestors,
	// larger b-levels first.
	var include func(n dag.NodeID)
	include = func(n dag.NodeID) {
		if inList[n] {
			return
		}
		for _, p := range parentOrder[n] {
			include(p)
		}
		appendNode(n)
	}

	// CPNs in ascending t-level order; for a unique critical path this
	// is exactly the path order (entry CPN first).
	cpns := dag.NodesOfClass(cls, dag.CPN)
	sort.Slice(cpns, func(a, b int) bool {
		if l.TLevel[cpns[a]] != l.TLevel[cpns[b]] {
			return l.TLevel[cpns[a]] < l.TLevel[cpns[b]]
		}
		return cpns[a] < cpns[b]
	})
	for _, n := range cpns {
		include(n)
	}

	// Step (9): append the OBNs in decreasing b-level order.
	obns := dag.NodesOfClass(cls, dag.OBN)
	sort.Slice(obns, func(a, b int) bool {
		if l.BLevel[obns[a]] != l.BLevel[obns[b]] {
			return l.BLevel[obns[a]] > l.BLevel[obns[b]]
		}
		if l.TLevel[obns[a]] != l.TLevel[obns[b]] {
			return l.TLevel[obns[a]] < l.TLevel[obns[b]]
		}
		return obns[a] < obns[b]
	})
	for _, n := range obns {
		// An OBN may still have unlisted OBN ancestors when b-levels tie;
		// include handles that while preserving step (9)'s intent.
		include(n)
	}
	return list
}
