package dag

import "fmt"

// ComputeLevelsCSR computes the t-level, b-level, static level and
// ALAP time of every node in O(v + e) time: the compact level kernel
// (ComputeLevelsCompactArena) followed by one static-level fold, with
// ALAP = CPLen - b-level. It returns an error if the graph is cyclic or
// empty.
func ComputeLevelsCSR(c *CSR) (*Levels, error) {
	cl, err := c.ComputeLevelsCompactArena(nil, nil)
	if err != nil {
		return nil, err
	}
	v := c.NumNodes()
	l := &Levels{
		TLevel: cl.TLevel,
		BLevel: cl.BLevel,
		Static: c.StaticLevels(cl.Order),
		ALAP:   make([]float64, v),
		CPLen:  cl.CPLen,
		Order:  make([]NodeID, v),
	}
	for i, n := range cl.Order {
		l.Order[i] = NodeID(n)
		l.ALAP[n] = l.CPLen - l.BLevel[n]
	}
	return l, nil
}

// StaticLevels returns every node's static level — its b-level with
// communication costs ignored — folded in reverse over order, a
// topological order of c (CompactLevels.Order).
func (c *CSR) StaticLevels(order []int32) []float64 {
	static := make([]float64, c.NumNodes())
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		st := 0.0
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if cand := static[c.SuccTo[s]]; cand > st {
				st = cand
			}
		}
		static[n] = c.NodeW[n] + st
	}
	return static
}

// CompactLevels is the index-compact subset of Levels the large-graph
// path needs: t-level, b-level and the topological order, 20 bytes per
// node. Static level and ALAP — used only by the ablation list orders
// and reporting — are omitted.
type CompactLevels struct {
	TLevel []float64
	BLevel []float64
	Order  []int32 // topological order, smallest-ID-first Kahn
	CPLen  float64
}

// ComputeLevelsCompactArena computes the compact levels of c: the one
// t/b-level fold of the package, over the smallest-ID-first Kahn order.
// The level tables and all topological scratch are drawn from a; a nil
// arena allocates them fresh. With a non-nil arena the tables are
// re-acquired every call — pass the same l to reuse its header, not
// its arrays — and are invalidated by the arena's Reset.
func (c *CSR) ComputeLevelsCompactArena(l *CompactLevels, a *ScaleArena) (*CompactLevels, error) {
	v := c.NumNodes()
	if v == 0 {
		return nil, fmt.Errorf("dag: cannot compute levels of an empty graph")
	}
	if l == nil {
		l = &CompactLevels{}
	}
	l.CPLen = 0
	l.TLevel = a.F64(v)
	l.BLevel = a.F64(v)
	order, err := c.topoOrderArenaInto(a.I32(v)[:0], a)
	if err != nil {
		return nil, err
	}
	l.Order = order
	// t-level: t(n) = max over parents p of t(p) + w(p) + c(p,n).
	for _, n := range order {
		t := 0.0
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			p := c.PredFrom[s]
			cand := l.TLevel[p] + c.NodeW[p] + c.PredW[s]
			if cand > t {
				t = cand
			}
		}
		l.TLevel[n] = t
	}
	// b-level: b(n) = w(n) + max over children m of c(n,m) + b(m).
	for i := v - 1; i >= 0; i-- {
		n := order[i]
		b := 0.0
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if cand := c.SuccW[s] + l.BLevel[c.SuccTo[s]]; cand > b {
				b = cand
			}
		}
		l.BLevel[n] = c.NodeW[n] + b
	}
	for _, n := range order {
		if sum := l.TLevel[n] + l.BLevel[n]; sum > l.CPLen {
			l.CPLen = sum
		}
	}
	return l, nil
}

// ClassifyCSR partitions the nodes into CPNs, IBNs and OBNs in
// O(v + e) time: a reverse topological sweep marks every node that can
// reach a CPN.
func ClassifyCSR(c *CSR, l *Levels) []Class {
	v := c.NumNodes()
	cls := make([]Class, v)
	reaches := make([]bool, v)
	for i := v - 1; i >= 0; i-- {
		n := l.Order[i]
		if l.IsCPN(n) {
			reaches[n] = true
			cls[n] = CPN
			continue
		}
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if reaches[c.SuccTo[s]] {
				reaches[n] = true
				break
			}
		}
		if reaches[n] {
			cls[n] = IBN
		} else {
			cls[n] = OBN
		}
	}
	return cls
}
