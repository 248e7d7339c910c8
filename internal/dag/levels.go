package dag

// Levels holds the per-node attributes used by scheduling heuristics.
// All tables are indexed by NodeID.
type Levels struct {
	TLevel []float64 // length of the longest path from an entry node to n, excluding w(n); the ASAP start time
	BLevel []float64 // length of the longest path from n to an exit node, including w(n)
	Static []float64 // static b-level: b-level with communication costs ignored
	ALAP   []float64 // as-late-as-possible start time: CP - b-level
	CPLen  float64   // critical-path length: max over nodes of t-level + b-level
	Order  []NodeID  // the topological order the levels were computed in
}

// ASAP returns the as-soon-as-possible start time of n (an alias of the
// t-level, as defined in the paper).
func (l *Levels) ASAP(n NodeID) float64 { return l.TLevel[n] }

// IsCPN reports whether n is a critical-path node, i.e. whether its
// ASAP and ALAP times coincide (equivalently t-level + b-level = CP).
func (l *Levels) IsCPN(n NodeID) bool {
	return l.TLevel[n]+l.BLevel[n] >= l.CPLen-cpEps(l.CPLen)
}

// cpEps is the tolerance for float comparisons against the CP length,
// scaled to the magnitude of the values involved.
func cpEps(cp float64) float64 {
	const rel = 1e-9
	if cp < 1 {
		return rel
	}
	return cp * rel
}

// ComputeLevels computes the t-level, b-level, static level and ALAP
// time of every node in O(v + e) time on the graph's CSR form (see
// ComputeLevelsCSR). It returns an error if the graph is cyclic or
// empty.
func ComputeLevels(g *Graph) (*Levels, error) { return ComputeLevelsCSR(BuildCSR(g)) }

// CriticalPath returns one critical path of the graph as a sequence of
// nodes from an entry node to an exit node, chosen deterministically
// (smallest ID among ties). The path's nodes are all CPNs.
func CriticalPath(g *Graph, l *Levels) []NodeID {
	// Start at the entry CPN with the largest b-level (== CPLen).
	start := None
	for _, n := range g.EntryNodes() {
		if l.IsCPN(n) && (start == None || l.BLevel[n] > l.BLevel[start]) {
			start = n
		}
	}
	if start == None {
		return nil
	}
	path := []NodeID{start}
	cur := start
	for g.OutDegree(cur) > 0 {
		next := None
		for _, e := range g.Succ(cur) {
			// The CP successor continues the longest path:
			// b(cur) = w(cur) + c(cur,next) + b(next), and next is a CPN.
			if !l.IsCPN(e.To) {
				continue
			}
			cont := g.Weight(cur) + e.Weight + l.BLevel[e.To]
			if cont >= l.BLevel[cur]-cpEps(l.CPLen) && (next == None || e.To < next) {
				next = e.To
			}
		}
		if next == None {
			break
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// Class is the FAST node classification.
type Class uint8

const (
	// CPN: a node on a critical path (t-level + b-level == CP length).
	CPN Class = iota
	// IBN (in-branch node): not a CPN, but some path from it reaches a CPN.
	IBN
	// OBN (out-branch node): neither a CPN nor an IBN.
	OBN
)

// String returns the conventional abbreviation of the class.
func (c Class) String() string {
	switch c {
	case CPN:
		return "CPN"
	case IBN:
		return "IBN"
	default:
		return "OBN"
	}
}

// NodesOfClass returns the IDs with the given class, in ID order.
func NodesOfClass(cls []Class, want Class) []NodeID {
	var out []NodeID
	for i, c := range cls {
		if c == want {
			out = append(out, NodeID(i))
		}
	}
	return out
}
