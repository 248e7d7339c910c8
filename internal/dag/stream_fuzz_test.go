package dag

import (
	"strings"
	"testing"
)

// stgSeedDigests pins FuzzStreamSTG's seed corpus (the f.Add inputs
// and testdata/fuzz/FuzzStreamSTG): the digest of every CSR array for
// accepted inputs, "reject" otherwise. Recorded while a second,
// map-based STG parser still cross-checked every parse.
var stgSeedDigests = map[string]string{
	"3\n0 1 0\n1 2 1 0\n2 3 1 1\n":            "390f87885ea183ca",
	"1\n0 0 0\n":                              "9d908ecfb6b256de",
	"# comment\n2\n0 1 0\n1 1 1 0\n":          "3b90db88f2cfbe69",
	"4\n3 4 2 2 1\n2 3 1 0\n1 2 1 0\n0 1 0\n": "5e8cb3c7ebd5e0d9",
	"":                      "reject",
	"not-a-number\n":        "reject",
	"2\n0 1 0\n1 1 1 1\n":   "reject",
	"000002000000 v1\n":     "reject",
	"2\n0 1 0\n1 1e309 0\n": "reject",
}

// FuzzStreamSTG fuzzes the STG reader: the heap and arena parses must
// agree on acceptance, error text and arenas; an accepted CSR must
// validate and round-trip through ToGraph and BuildCSR slot for slot;
// and seed inputs must reproduce stgSeedDigests. Seeded with the
// FuzzReadSTG corpus — including the header-OOM crasher
// ("000002000000 v1\n"), which must fail fast without allocating for
// the declared count.
func FuzzStreamSTG(f *testing.F) {
	f.Add("3\n0 1 0\n1 2 1 0\n2 3 1 1\n")
	f.Add("1\n0 0 0\n")
	f.Add("# comment\n2\n0 1 0\n1 1 1 0\n")
	f.Add("")
	f.Add("not-a-number\n")
	f.Add("2\n0 1 0\n1 1 1 1\n") // self-predecessor
	f.Add("000002000000 v1\n")   // FuzzReadSTG OOM crasher
	f.Add("4\n3 4 2 2 1\n2 3 1 0\n1 2 1 0\n0 1 0\n")
	f.Add("2\n0 1 0\n1 1e309 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		c, errStream := StreamSTG(strings.NewReader(input), 1)
		ca, errArena := StreamSTGArena(strings.NewReader(input), 1, NewScaleArena())
		if (errStream == nil) != (errArena == nil) {
			t.Fatalf("arena acceptance diverges: stream=%v arena=%v", errStream, errArena)
		}
		got := "reject"
		if errStream != nil {
			if errArena.Error() != errStream.Error() {
				t.Fatalf("arena error text diverges:\n  %v\n  %v", errStream, errArena)
			}
		} else {
			compareCSR(t, c, ca)
			if err := c.Validate(); err != nil {
				t.Fatalf("accepted stream CSR fails validation: %v", err)
			}
			compareCSR(t, c, BuildCSR(c.ToGraph()))
			got = digest(t, c.PredOff, c.PredFrom, c.PredW, c.SuccOff, c.SuccTo, c.SuccW, c.NodeW)
		}
		if want, ok := stgSeedDigests[input]; ok && got != want {
			t.Fatalf("input %q: digest %s, want %s", input, got, want)
		}
	})
}

// FuzzStreamEdgeList drives the edge-list reader with arbitrary text:
// never panic, and accepted graphs must validate.
func FuzzStreamEdgeList(f *testing.F) {
	f.Add("v 2\nn 1\nn 2\ne 0 1 3\n")
	f.Add("v 1\nn 0\n")
	f.Add("# c\nv 3\nn 1\nn 1\ne 0 1 1\nn 1\ne 0 2 2\ne 1 2 1\n")
	f.Add("")
	f.Add("v 1000000000\n")
	f.Add("v 2\nn 1\nn 1\ne 1 0 1\ne 0 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		c, err := StreamEdgeList(strings.NewReader(input))
		ca, errArena := StreamEdgeListArena(strings.NewReader(input), NewScaleArena())
		if (err == nil) != (errArena == nil) {
			t.Fatalf("arena acceptance diverges: stream=%v arena=%v", err, errArena)
		}
		if err != nil && errArena.Error() != err.Error() {
			t.Fatalf("arena error text diverges:\n  %v\n  %v", err, errArena)
		}
		if err != nil {
			return
		}
		compareCSR(t, c, ca)
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted edge list fails validation: %v", err)
		}
		if err := c.ToGraph().Validate(); err != nil {
			t.Fatalf("materialized graph fails validation: %v", err)
		}
	})
}
