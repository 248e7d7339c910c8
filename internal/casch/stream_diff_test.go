package casch

import (
	"bytes"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// wantIngest pins each registry algorithm's schedule of each streamed
// workload, recorded while a second, map-based STG reader still fed
// every algorithm the same graph for comparison.
var wantIngest = map[string]string{
	"gauss/dcp":            "c8666a31436d7986",
	"gauss/dls":            "5f4b20016a5a8540",
	"gauss/dsc":            "cf9743d355036049",
	"gauss/dsc-map":        "adf5f20ae3e5807d",
	"gauss/etf":            "3f343e6e6271661b",
	"gauss/ez":             "762f07d30def0174",
	"gauss/fast":           "b4aad8c9404cb94b",
	"gauss/fast-hier":      "c3e92e004199019d",
	"gauss/fast-initial":   "c8666a31436d7986",
	"gauss/hlfet":          "f92520846bec38ae",
	"gauss/ish":            "f92520846bec38ae",
	"gauss/lc":             "cf9743d355036049",
	"gauss/lc-map":         "adf5f20ae3e5807d",
	"gauss/mcp":            "3ad76b890afcfb71",
	"gauss/md":             "5896095eb4758151",
	"gauss/mh":             "ddbfb552273bb865",
	"gauss/pfast":          "f21acb9b623650c8",
	"layered/dcp":          "f95372f4335bca49",
	"layered/dls":          "c30068891bc0fac4",
	"layered/dsc":          "a3d5f71e17ab9f5b",
	"layered/dsc-map":      "6172a05fe453f702",
	"layered/etf":          "c30068891bc0fac4",
	"layered/ez":           "36a4296535385472",
	"layered/fast":         "d01a8f0a365004dd",
	"layered/fast-hier":    "0d833279fd064e90",
	"layered/fast-initial": "d01a8f0a365004dd",
	"layered/hlfet":        "c30068891bc0fac4",
	"layered/ish":          "c30068891bc0fac4",
	"layered/lc":           "71495b0008366916",
	"layered/lc-map":       "454c2c135cdee159",
	"layered/mcp":          "b91afa56346d9d53",
	"layered/md":           "48003bdb646376f1",
	"layered/mh":           "27b93a83088bcdfb",
	"layered/pfast":        "d01a8f0a365004dd",
	"random/dcp":           "0eb2cf4545ed938d",
	"random/dls":           "c666d37ced07f745",
	"random/dsc":           "276e1aca456bdc7c",
	"random/dsc-map":       "29272e39f52f9a99",
	"random/etf":           "3987a8b776f9208e",
	"random/ez":            "23fa87454d0c1608",
	"random/fast":          "bf6bb55049808b5c",
	"random/fast-hier":     "651c610f69a27c6b",
	"random/fast-initial":  "bf6bb55049808b5c",
	"random/hlfet":         "c548828b75a2ef2a",
	"random/ish":           "2755b5ead2fa342e",
	"random/lc":            "3c69b89fc3c56951",
	"random/lc-map":        "787a100fe25993c1",
	"random/mcp":           "a54b6dbd153684a2",
	"random/md":            "b2eac3338e3b823b",
	"random/mh":            "861d14cc652c61f3",
	"random/pfast":         "f3fe22d09e542c5f",
}

// TestStreamingIngestDifferential pins the serving-path ingest
// contract across the whole registry: a graph loaded through the
// streaming CSR reader (dag.StreamSTG → ToGraph) must reproduce the
// recorded schedule of every algorithm on several workload shapes, so
// nothing downstream — iteration order, tie-breaks, seeded searches —
// can drift with the reader.
func TestStreamingIngestDifferential(t *testing.T) {
	graphs := make(map[string]*dag.Graph)
	g, err := workload.GaussElim(5, timing.ParagonLike())
	if err != nil {
		t.Fatal(err)
	}
	graphs["gauss"] = g
	if g, err = workload.Random(workload.RandomOpts{V: 120, Seed: 21, MeanInDegree: 4}); err != nil {
		t.Fatal(err)
	}
	graphs["random"] = g
	c, err := workload.LayeredCSR(workload.LayeredOpts{V: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	graphs["layered"] = c.ToGraph()

	const defaultComm = 2
	for wname, orig := range graphs {
		var buf bytes.Buffer
		if err := dag.WriteSTG(&buf, orig); err != nil {
			t.Fatal(err)
		}
		streamed, err := dag.StreamSTG(bytes.NewReader(buf.Bytes()), defaultComm)
		if err != nil {
			t.Fatal(err)
		}
		sg := streamed.ToGraph()
		for _, name := range AlgorithmNames() {
			if name == "opt" {
				continue // exponential beyond ~20 tasks; covered by its own tests
			}
			t.Run(wname+"/"+name, func(t *testing.T) {
				s, err := NewScheduler(name, 7)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Schedule(sg, 4)
				if err != nil {
					t.Fatal(err)
				}
				if d, want := schedtest.Digest(got), wantIngest[wname+"/"+name]; d != want {
					t.Fatalf("schedule digest %s, want %s", d, want)
				}
			})
		}
	}
}
