package dag

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestComputeLevelsDiamond(t *testing.T) {
	g := diamond(t)
	l, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	// t-levels: a=0, b=1+2=3, c=1+3=4, d=max(3+2+1, 4+3+5)=12
	wantT := []float64{0, 3, 4, 12}
	// b-levels: d=4, b=2+1+4=7, c=3+5+4=12, a=1+max(2+7, 3+12)=16
	wantB := []float64{16, 7, 12, 4}
	for i := range wantT {
		if !almostEq(l.TLevel[i], wantT[i]) {
			t.Errorf("TLevel[%d] = %v, want %v", i, l.TLevel[i], wantT[i])
		}
		if !almostEq(l.BLevel[i], wantB[i]) {
			t.Errorf("BLevel[%d] = %v, want %v", i, l.BLevel[i], wantB[i])
		}
	}
	if !almostEq(l.CPLen, 16) {
		t.Fatalf("CPLen = %v, want 16", l.CPLen)
	}
	// static levels ignore communication: d=4, b=6, c=7, a=8
	wantS := []float64{8, 6, 7, 4}
	for i := range wantS {
		if !almostEq(l.Static[i], wantS[i]) {
			t.Errorf("Static[%d] = %v, want %v", i, l.Static[i], wantS[i])
		}
	}
	// ALAP = CP - b-level
	for i := range wantB {
		if !almostEq(l.ALAP[i], 16-wantB[i]) {
			t.Errorf("ALAP[%d] = %v, want %v", i, l.ALAP[i], 16-wantB[i])
		}
	}
}

func TestComputeLevelsEmptyGraph(t *testing.T) {
	if _, err := ComputeLevels(New(0)); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestComputeLevelsSingleNode(t *testing.T) {
	g := New(1)
	g.AddNode("solo", 5)
	l, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	if l.TLevel[0] != 0 || l.BLevel[0] != 5 || l.CPLen != 5 {
		t.Fatalf("levels = t %v b %v cp %v", l.TLevel[0], l.BLevel[0], l.CPLen)
	}
	if !l.IsCPN(0) {
		t.Fatal("single node must be a CPN")
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := diamond(t)
	l, _ := ComputeLevels(g)
	cp := CriticalPath(g, l)
	want := []NodeID{0, 2, 3} // a -> c -> d (1+3+3+5+4 = 16)
	if len(cp) != len(want) {
		t.Fatalf("CP = %v, want %v", cp, want)
	}
	for i := range want {
		if cp[i] != want[i] {
			t.Fatalf("CP = %v, want %v", cp, want)
		}
	}
	for _, n := range cp {
		if !l.IsCPN(n) {
			t.Fatalf("CP node %d is not a CPN", n)
		}
	}
}

func TestClassifyDiamond(t *testing.T) {
	g := diamond(t)
	l, _ := ComputeLevels(g)
	cls := ClassifyCSR(BuildCSR(g), l)
	// a, c, d on the CP; b reaches d, so IBN.
	want := []Class{CPN, IBN, CPN, CPN}
	for i := range want {
		if cls[i] != want[i] {
			t.Fatalf("cls[%d] = %v, want %v", i, cls[i], want[i])
		}
	}
}

func TestClassifyWithOBN(t *testing.T) {
	// a -> b (CP: heavy), a -> c where c is a leaf off the CP => OBN? A
	// node with no path to a CPN. Exit nodes are only non-CPN if their
	// t+b < CP; c is an exit with small weight, so it is an OBN.
	g := New(3)
	a := g.AddNode("a", 10)
	b := g.AddNode("b", 10)
	c := g.AddNode("c", 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(a, c, 1)
	l, _ := ComputeLevels(g)
	cls := ClassifyCSR(BuildCSR(g), l)
	if cls[a] != CPN || cls[b] != CPN {
		t.Fatalf("a/b classes = %v %v", cls[a], cls[b])
	}
	if cls[c] != OBN {
		t.Fatalf("c class = %v, want OBN", cls[c])
	}
	if got := NodesOfClass(cls, OBN); len(got) != 1 || got[0] != c {
		t.Fatalf("NodesOfClass(OBN) = %v", got)
	}
}

func TestClassStrings(t *testing.T) {
	if CPN.String() != "CPN" || IBN.String() != "IBN" || OBN.String() != "OBN" {
		t.Fatal("Class.String mismatch")
	}
}

// Property: for every node, t-level + b-level <= CP length, with equality
// exactly for CPNs; ALAP >= ASAP; entry nodes have t-level 0; b-level of
// any node >= its weight.
func TestLevelInvariantsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g := randomLayered(rng, 2+rng.Intn(80))
		l, err := ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		sawCPN := false
		for i := 0; i < g.NumNodes(); i++ {
			n := NodeID(i)
			sum := l.TLevel[n] + l.BLevel[n]
			if sum > l.CPLen+1e-9 {
				t.Fatalf("trial %d: t+b (%v) > CP (%v)", trial, sum, l.CPLen)
			}
			if l.IsCPN(n) {
				sawCPN = true
				if !almostEq(l.ASAP(n), l.ALAP[n]) {
					t.Fatalf("trial %d: CPN %d has ASAP %v != ALAP %v", trial, n, l.ASAP(n), l.ALAP[n])
				}
			} else if l.ALAP[n] < l.ASAP(n)-1e-9 {
				t.Fatalf("trial %d: node %d ALAP %v < ASAP %v", trial, n, l.ALAP[n], l.ASAP(n))
			}
			if l.BLevel[n] < g.Weight(n)-1e-9 {
				t.Fatalf("trial %d: b-level %v < weight %v", trial, l.BLevel[n], g.Weight(n))
			}
			if l.Static[n] > l.BLevel[n]+1e-9 {
				t.Fatalf("trial %d: static level %v > b-level %v", trial, l.Static[n], l.BLevel[n])
			}
		}
		if !sawCPN {
			t.Fatalf("trial %d: no CPN found", trial)
		}
		for _, n := range g.EntryNodes() {
			if l.TLevel[n] != 0 {
				t.Fatalf("trial %d: entry node %d has t-level %v", trial, n, l.TLevel[n])
			}
		}
		// The critical path must be contiguous and have total length CPLen.
		cp := CriticalPath(g, l)
		if len(cp) == 0 {
			t.Fatalf("trial %d: empty critical path", trial)
		}
		total := 0.0
		for i, n := range cp {
			total += g.Weight(n)
			if i+1 < len(cp) {
				w, ok := g.EdgeWeight(n, cp[i+1])
				if !ok {
					t.Fatalf("trial %d: CP not contiguous at %d->%d", trial, n, cp[i+1])
				}
				total += w
			}
		}
		if !almostEq(total, l.CPLen) {
			t.Fatalf("trial %d: CP path length %v != CPLen %v", trial, total, l.CPLen)
		}
	}
}
