package example

import (
	"testing"

	"fastsched/internal/dag"
)

func TestGraphShape(t *testing.T) {
	g := Graph()
	if g.NumNodes() != 9 || g.NumEdges() != 14 {
		t.Fatalf("shape = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsWeaklyConnected() {
		t.Fatal("example graph must be connected")
	}
	if g.Label(N(7)) != "n7" {
		t.Fatalf("label of n7 = %q", g.Label(N(7)))
	}
}

// The paper's textual constraints on Figure 1, asserted exactly.
func TestPaperLevelConstraints(t *testing.T) {
	g := Graph()
	l, err := dag.ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	wantT := []float64{0, 6, 3, 3, 3, 10, 12, 11, 22}
	wantB := []float64{23, 15, 15, 15, 18, 10, 11, 10, 1}
	for i := range wantT {
		if l.TLevel[i] != wantT[i] {
			t.Errorf("t-level n%d = %v, want %v", i+1, l.TLevel[i], wantT[i])
		}
		if l.BLevel[i] != wantB[i] {
			t.Errorf("b-level n%d = %v, want %v", i+1, l.BLevel[i], wantB[i])
		}
	}
	if l.CPLen != 23 {
		t.Fatalf("CP length = %v, want 23", l.CPLen)
	}
}

func TestPaperClassification(t *testing.T) {
	g := Graph()
	l, _ := dag.ComputeLevels(g)
	cls := dag.ClassifyCSR(dag.BuildCSR(g), l)
	wantCPN := map[dag.NodeID]bool{N(1): true, N(7): true, N(9): true}
	for i := 0; i < 9; i++ {
		n := dag.NodeID(i)
		if wantCPN[n] && cls[n] != dag.CPN {
			t.Errorf("n%d class = %v, want CPN", i+1, cls[n])
		}
		if !wantCPN[n] && cls[n] != dag.IBN {
			t.Errorf("n%d class = %v, want IBN (paper: no OBN)", i+1, cls[n])
		}
	}
	cp := dag.CriticalPath(g, l)
	want := []dag.NodeID{N(1), N(7), N(9)}
	if len(cp) != 3 {
		t.Fatalf("CP = %v", cp)
	}
	for i := range want {
		if cp[i] != want[i] {
			t.Fatalf("CP = %v, want n1,n7,n9", cp)
		}
	}
}

// The tie-break the paper calls out: parents n6 and n8 of n9 have equal
// b-levels and n6 has the smaller t-level.
func TestPaperTieBreakConstraint(t *testing.T) {
	g := Graph()
	l, _ := dag.ComputeLevels(g)
	if l.BLevel[N(6)] != l.BLevel[N(8)] {
		t.Fatalf("b-levels of n6 (%v) and n8 (%v) must tie", l.BLevel[N(6)], l.BLevel[N(8)])
	}
	if l.TLevel[N(6)] >= l.TLevel[N(8)] {
		t.Fatalf("t-level of n6 (%v) must be below n8's (%v)", l.TLevel[N(6)], l.TLevel[N(8)])
	}
	// Similarly n3 precedes n2 when expanding n7's parents.
	if l.BLevel[N(3)] != l.BLevel[N(2)] || l.TLevel[N(3)] >= l.TLevel[N(2)] {
		t.Fatalf("n3/n2 ordering constraint violated: b %v/%v t %v/%v",
			l.BLevel[N(3)], l.BLevel[N(2)], l.TLevel[N(3)], l.TLevel[N(2)])
	}
}
