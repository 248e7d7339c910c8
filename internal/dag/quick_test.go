package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// graphFromSpec builds a deterministic layered DAG from a compact spec,
// giving testing/quick a way to generate arbitrary valid graphs.
func graphFromSpec(seed int64, vRaw uint8) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return randomLayered(rng, 2+int(vRaw%60))
}

// Property: scaling every edge weight by a constant k >= 1 never
// decreases any t-level or b-level, and scales the computation-only
// static levels not at all.
func TestQuickLevelMonotoneInCommWeights(t *testing.T) {
	f := func(seed int64, vRaw uint8, kRaw uint8) bool {
		g := graphFromSpec(seed, vRaw)
		k := 1 + float64(kRaw%5)
		before, err := ComputeLevels(g)
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			g.SetEdgeWeight(e.From, e.To, e.Weight*k)
		}
		after, err := ComputeLevels(g)
		if err != nil {
			return false
		}
		for i := 0; i < g.NumNodes(); i++ {
			n := NodeID(i)
			if after.TLevel[n] < before.TLevel[n]-1e-9 ||
				after.BLevel[n] < before.BLevel[n]-1e-9 {
				return false
			}
			if after.Static[n] != before.Static[n] {
				return false
			}
		}
		return after.CPLen >= before.CPLen-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone produces a graph that is structurally identical and
// fully independent.
func TestQuickCloneEquality(t *testing.T) {
	f := func(seed int64, vRaw uint8) bool {
		g := graphFromSpec(seed, vRaw)
		c := g.Clone()
		if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			w, ok := c.EdgeWeight(e.From, e.To)
			if !ok || w != e.Weight {
				return false
			}
		}
		// mutate the clone; the original must not move
		if c.NumNodes() > 0 {
			c.SetWeight(0, 12345)
		}
		return g.NumNodes() == 0 || g.Weight(0) != 12345 || c.Weight(0) == g.Weight(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the classification is a partition — every node gets exactly
// one class, every graph has at least one CPN, and no CPN has an OBN
// ancestor (an ancestor of a CPN reaches a CPN by definition).
func TestQuickClassificationPartition(t *testing.T) {
	f := func(seed int64, vRaw uint8) bool {
		g := graphFromSpec(seed, vRaw)
		l, err := ComputeLevels(g)
		if err != nil {
			return false
		}
		cls := ClassifyCSR(BuildCSR(g), l)
		if len(NodesOfClass(cls, CPN)) == 0 {
			return false
		}
		for _, e := range g.Edges() {
			if cls[e.To] == CPN && cls[e.From] == OBN {
				return false // parent of a CPN must reach a CPN
			}
			if cls[e.To] == IBN && cls[e.From] == OBN {
				return false // parent of an IBN reaches whatever the IBN reaches
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
