package hlfet

import (
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/workload"
)

func TestConformance(t *testing.T) {
	schedtest.Conformance(t, New(), true)
}

func TestName(t *testing.T) {
	if New().Name() != "HLFET" {
		t.Fatal("name")
	}
}

func TestExampleGraphValid(t *testing.T) {
	g := example.Graph()
	s, err := New().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
}

// HLFET's defining move: the ready node with the highest static level
// goes first, even when another ready node could start just as early.
func TestHighestStaticLevelFirst(t *testing.T) {
	g := dag.New(4)
	x := g.AddNode("x", 2)
	y := g.AddNode("y", 2)
	yc := g.AddNode("yc", 20) // makes SL(y) big
	xc := g.AddNode("xc", 1)
	g.MustAddEdge(y, yc, 0)
	g.MustAddEdge(x, xc, 0)
	s, err := New().Schedule(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start(y) != 0 {
		t.Fatalf("y should start first (SL 22 vs 3), got y=%v x=%v", s.Start(y), s.Start(x))
	}
}

// HLFET ignores communication when prioritizing but not when placing:
// a child is still co-located with its parent when the message is
// expensive.
func TestPlacementAvoidsComm(t *testing.T) {
	g := dag.New(2)
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	g.MustAddEdge(a, b, 100)
	s, err := New().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Proc(a) != s.Proc(b) || s.Length() != 2 {
		t.Fatalf("placement paid the message: %v", s.Length())
	}
}

// wantHLFET pins ScheduleCSR per (graph, procs) of
// TestScheduleCSRBitIdentical, recorded while a second, *dag.Graph
// list scheduler still reproduced every placement bit for bit.
var wantHLFET = []string{
	"ccbf7eb57884e7d4", "4d4d37b89427f726", "8c84353b0e539337", "ccbf7eb57884e7d4", "ccbf7eb57884e7d4", // graph 0: procs -1, 1, 2, 4, 7
	"fae189bdf994448f", "024a917a8328c438", "028c5523f8c917db", "da59d369e794c0ba", "2c56329b3d1164cc", // graph 1: procs -1, 1, 2, 4, 7
	"fb55d3503684c768", "8499b9ebc8841968", "18201e90d52a7ead", "42cf6188aa7af4fd", "424bd332d1e88980", // graph 2: procs -1, 1, 2, 4, 7
	"f88ea0bf7b3fe124", "2f60e117207a8209", "f82f2f8508bb055d", "99be6485a552faf0", "05059f97b39788f3", // graph 3: procs -1, 1, 2, 4, 7
	"5adac1b3bce2eb4d", "96b223ea3c9e603c", "a0e95cd230a269b5", "0bb32b5fac5494cb", "a3958926512b0ad3", // graph 4: procs -1, 1, 2, 4, 7
	"56753e901538d1c3", "84dc5f44ef44ca34", "12fc424b0a0f2f96", "6298bb1e693853d1", "4b1cb025f9e0e8c8", // graph 5: procs -1, 1, 2, 4, 7
	"27616116bf0354e2", "04887933da4a19d4", "a6571afba99e8859", "6e53fc30bd6a721b", "19e02ef6102975e1", // graph 6: procs -1, 1, 2, 4, 7
	"bff5e7f97708b048", "19b839fdccbf7192", "bd027317caa32300", "f555c983349861de", "5653cbced5924adb", // graph 7: procs -1, 1, 2, 4, 7
}

// TestScheduleCSRBitIdentical pins HLFET's placements across shapes,
// sizes and processor counts — including procs <= 0 (one processor per
// node) — and checks that Schedule is ScheduleCSR's flat result.
func TestScheduleCSRBitIdentical(t *testing.T) {
	graphs := []*dag.Graph{example.Graph()}
	for seed := int64(1); seed <= 6; seed++ {
		g, err := workload.Random(workload.RandomOpts{V: 40, Seed: seed, MeanInDegree: 4})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	lg, err := workload.LayeredCSR(workload.LayeredOpts{V: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, lg.ToGraph())
	var got []string
	for gi, g := range graphs {
		for _, procs := range []int{-1, 1, 2, 4, 7} {
			f, err := New().ScheduleCSR(dag.BuildCSR(g), procs)
			if err != nil {
				t.Fatalf("graph %d procs %d: %v", gi, procs, err)
			}
			s, err := New().Schedule(g, procs)
			if err != nil {
				t.Fatalf("graph %d procs %d: %v", gi, procs, err)
			}
			d := schedtest.Digest(f.ToSchedule())
			if sd := schedtest.Digest(s); sd != d {
				t.Fatalf("graph %d procs %d: Schedule digest %s != ScheduleCSR %s", gi, procs, sd, d)
			}
			got = append(got, d)
		}
	}
	if len(got) != len(wantHLFET) {
		t.Fatalf("%d schedules, want %d\n%q", len(got), len(wantHLFET), got)
	}
	for i := range got {
		if got[i] != wantHLFET[i] {
			t.Fatalf("schedule %d: digest %s, want %s\n%q", i, got[i], wantHLFET[i], got)
		}
	}
}
