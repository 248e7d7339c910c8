package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

// levelGraphs yields the level corpus: the STG fixtures plus random
// DAGs with random insertion orders.
func levelGraphs(t *testing.T) []*Graph {
	t.Helper()
	var gs []*Graph
	for _, fix := range stgFixtures {
		g, err := ReadSTG(strings.NewReader(fix), 2)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	for seed := int64(0); seed < 6; seed++ {
		gs = append(gs, randomGraph(t, 35, seed))
	}
	return gs
}

// digest hashes its arguments bit for bit — fixed-size values and
// slices of them in binary.Write's little-endian encoding, NodeIDs
// widened to int64 — into 16 hex digits. The tests below compare a
// kernel's outputs against digests recorded while the kernel still had
// a slice-of-slices twin to agree with, so the values stay pinned now
// that the twins are gone.
func digest(t *testing.T, parts ...any) string {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		if ids, ok := p.([]NodeID); ok {
			wide := make([]int64, len(ids))
			for i, n := range ids {
				wide[i] = int64(n)
			}
			p = wide
		}
		if err := binary.Write(h, binary.LittleEndian, p); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Per levelGraphs entry: t-level, b-level, static level, ALAP, CPLen
// and order of ComputeLevelsCSR.
var wantLevels = []string{
	"6774aaa33d02a10d", "17b0761f87b081d5", "20a576e547ee079d", "ea440917193c9fd3",
	"ea440917193c9fd3", "13a2f477338f9074", "0abbdfb2add3b364", "129b570e3cd84280",
	"b9f64c9aeb777bc2", "d28f5449ee248c8c", "16ae69d1e4b30098", "2a07a4831f16afc8",
	"c0e4cfe11e362acb",
}

// Per levelGraphs entry: t-level, b-level, order, CPLen and the IsCPN
// flags of the compact kernel.
var wantCompactLevels = []string{
	"4eee58da41197a1a", "06b8df2676117156", "896fc3d1bf92f447", "c9a36cd0cb86344e",
	"c9a36cd0cb86344e", "f4d316388f212f36", "606e565be4061910", "e6598bac73198475",
	"351eae561b9e30c5", "121df0af10dc9768", "2112f78cc5f2c107", "4570bab6257ff62b",
	"a64d03ef5e7cfaea",
}

// Per levelGraphs entry: the ClassifyCSR partition.
var wantClasses = []string{
	"709e80c88487a241", "6e340b9cffb37a98", "96a296d224f285c6", "bf5e8ffa51a9e748",
	"bf5e8ffa51a9e748", "00d4713429e4fd21", "b0f66adc83641586", "013c8841cc55d913",
	"485a09d9b6c87005", "e30d8f7414fdec36", "df2bbe074b786a0a", "bba24fd55791bb4e",
	"c914465556ddad2b",
}

// checkDigests fails on the first entry of got that differs from want,
// printing every got digest so a deliberate change can be re-recorded.
func checkDigests(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d digests, want %d\n%q", what, len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d digest %s, want %s\n%q", what, i, got[i], want[i], got)
		}
	}
}

func TestComputeLevelsCSRBitIdentical(t *testing.T) {
	var got []string
	for gi, g := range levelGraphs(t) {
		l, err := ComputeLevelsCSR(BuildCSR(g))
		if err != nil {
			t.Fatal(err)
		}
		d := digest(t, l.TLevel, l.BLevel, l.Static, l.ALAP, l.CPLen, l.Order)
		viaGraph, err := ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		if dg := digest(t, viaGraph.TLevel, viaGraph.BLevel, viaGraph.Static, viaGraph.ALAP, viaGraph.CPLen, viaGraph.Order); dg != d {
			t.Fatalf("graph %d: ComputeLevels digest %s != ComputeLevelsCSR %s", gi, dg, d)
		}
		got = append(got, d)
	}
	checkDigests(t, "ComputeLevelsCSR", got, wantLevels)
}

func TestComputeLevelsCompactMatches(t *testing.T) {
	var got []string
	shell := &CompactLevels{} // shared across graphs: exercises header reuse
	for _, g := range levelGraphs(t) {
		l, err := BuildCSR(g).ComputeLevelsCompactArena(shell, nil)
		if err != nil {
			t.Fatal(err)
		}
		cpn := make([]bool, g.NumNodes())
		for n := range cpn {
			cpn[n] = l.TLevel[n]+l.BLevel[n] >= l.CPLen-cpEps(l.CPLen)
		}
		got = append(got, digest(t, l.TLevel, l.BLevel, l.Order, l.CPLen, cpn))
	}
	checkDigests(t, "ComputeLevelsCompactArena", got, wantCompactLevels)
}

func TestClassifyCSRAndCompactMatch(t *testing.T) {
	var got []string
	for _, g := range levelGraphs(t) {
		c := BuildCSR(g)
		l, err := ComputeLevelsCSR(c)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, digest(t, ClassifyCSR(c, l)))
	}
	checkDigests(t, "ClassifyCSR", got, wantClasses)
}

func TestComputeLevelsCSREmpty(t *testing.T) {
	empty := &CSR{PredOff: []int32{0}, SuccOff: []int32{0}}
	if _, err := ComputeLevelsCSR(empty); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := empty.ComputeLevelsCompactArena(nil, nil); err == nil {
		t.Fatal("empty graph accepted by compact kernel")
	}
}
