package dag

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refHeap is container/heap's min-heap of node IDs.
type refHeap []NodeID

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(NodeID)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refTopoOrder is the reference the package's cursor-scan sort must
// reproduce: Kahn's algorithm with every ready node in one min-heap,
// smallest ID first.
func refTopoOrder(g *Graph) ([]NodeID, error) {
	v := g.NumNodes()
	indeg := make([]int, v)
	h := &refHeap{}
	for n := 0; n < v; n++ {
		indeg[n] = len(g.Pred(NodeID(n)))
		if indeg[n] == 0 {
			heap.Push(h, NodeID(n))
		}
	}
	var order []NodeID
	for h.Len() > 0 {
		n := heap.Pop(h).(NodeID)
		order = append(order, n)
		for _, e := range g.Succ(n) {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				heap.Push(h, e.To)
			}
		}
	}
	if len(order) != v {
		return nil, fmt.Errorf("dag: %w (%d of %d nodes ordered)", ErrCycle, len(order), v)
	}
	return order, nil
}

// permutedGraph builds a random graph whose edges run from lower to
// higher rank in a random permutation of the IDs, so the IDs are not a
// topological numbering and the sort's heap branch does the work.
// back > 0 adds that many rank-descending edges, which usually close
// cycles.
func permutedGraph(rng *rand.Rand, v, back int) *Graph {
	g := New(v)
	for i := 0; i < v; i++ {
		g.AddNode("", float64(1+rng.Intn(9)))
	}
	id := rng.Perm(v)
	for j := 1; j < v; j++ {
		for k := rng.Intn(4); k > 0; k-- {
			_ = g.AddEdge(NodeID(id[rng.Intn(j)]), NodeID(id[j]), float64(rng.Intn(10)))
		}
	}
	for ; back > 0 && v > 1; back-- {
		i := 1 + rng.Intn(v-1)
		_ = g.AddEdge(NodeID(id[i]), NodeID(id[rng.Intn(i)]), 1)
	}
	return g
}

// TestTopoOrderMatchesReferenceKahn is the property test of the cursor
// scan: on random graphs with permuted IDs, acyclic and cyclic, both
// CSR.TopoOrder and Graph.TopologicalOrder return exactly the reference
// heap Kahn's order, or exactly its ErrCycle error.
func TestTopoOrderMatchesReferenceKahn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var unnumbered, cyclic int
	for trial := 0; trial < 400; trial++ {
		v := 1 + rng.Intn(80)
		back := 0
		if trial%3 == 2 {
			back = 1 + rng.Intn(3)
		}
		g := permutedGraph(rng, v, back)
		for _, e := range g.Edges() {
			if e.From > e.To {
				unnumbered++
				break
			}
		}
		want, wantErr := refTopoOrder(g)
		if wantErr != nil {
			cyclic++
		}
		viaCSR, errCSR := BuildCSR(g).TopoOrder()
		viaGraph, errGraph := g.TopologicalOrder()
		for _, got := range []struct {
			name  string
			order []NodeID
			err   error
		}{
			{"CSR.TopoOrder", idsOf(viaCSR), errCSR},
			{"Graph.TopologicalOrder", viaGraph, errGraph},
		} {
			if wantErr != nil {
				if got.err == nil || got.err.Error() != wantErr.Error() || !errors.Is(got.err, ErrCycle) {
					t.Fatalf("trial %d: %s error %v, want %v", trial, got.name, got.err, wantErr)
				}
				continue
			}
			if got.err != nil {
				t.Fatalf("trial %d: %s: %v", trial, got.name, got.err)
			}
			if fmt.Sprint(got.order) != fmt.Sprint(want) {
				t.Fatalf("trial %d: %s order\n%v\nwant\n%v", trial, got.name, got.order, want)
			}
		}
	}
	if unnumbered < 200 || cyclic < 50 {
		t.Fatalf("corpus too tame: %d graphs with a descending edge, %d cyclic", unnumbered, cyclic)
	}
}

func idsOf(order []int32) []NodeID {
	if order == nil {
		return nil
	}
	ids := make([]NodeID, len(order))
	for i, n := range order {
		ids[i] = NodeID(n)
	}
	return ids
}
