package dag

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSortByKey is the comparison-sort reference for SortByKey.
func refSortByKey(idx []int32, keys []float64, order KeyOrder) {
	slices.SortStableFunc(idx, func(x, y int32) int {
		a, b := keys[x], keys[y]
		if order == Descending {
			a, b = b, a
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
}

// radixKeySets are the key shapes the radix sort must order exactly as
// a comparison sort does: signed zeros (equal, so only stability orders
// them), infinities, subnormals, all-equal keys (every digit skipped),
// integer-valued keys (low mantissa digits all zero, so skipped),
// negatives, and full-mantissa random values.
func radixKeySets(rng *rand.Rand) map[string][]float64 {
	sub := math.SmallestNonzeroFloat64
	sets := map[string][]float64{
		"zeros":     {0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1},
		"inf":       {math.Inf(1), 3, math.Inf(-1), 0, math.Inf(1), math.MaxFloat64, -math.MaxFloat64},
		"subnormal": {sub, 2 * sub, 0, math.Copysign(0, -1), -sub, 1e-310, -1e-310, math.SmallestNonzeroFloat64 * 7},
		"equal":     {2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5},
		"single":    {42},
		"empty":     {},
	}
	ints := make([]float64, 3000)
	mixed := make([]float64, 3000)
	for i := range ints {
		ints[i] = float64(rng.Intn(50))
		mixed[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		if i%97 == 0 {
			mixed[i] = math.Copysign(0, -1)
		}
	}
	sets["integers"] = ints
	sets["mixed"] = mixed
	return sets
}

func TestSortByKeyMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, keys := range radixKeySets(rng) {
		for _, order := range []KeyOrder{Ascending, Descending} {
			// A shuffled permutation of every key, and a subset with a
			// repeated index: both must sort stably by key.
			perm := make([]int32, len(keys))
			for i, p := range rng.Perm(len(keys)) {
				perm[i] = int32(p)
			}
			subset := append([]int32(nil), perm[:len(perm)/2]...)
			if len(perm) > 0 {
				subset = append(subset, perm[0])
			}
			for _, idx := range [][]int32{perm, subset} {
				got := append([]int32(nil), idx...)
				want := append([]int32(nil), idx...)
				SortByKey(got, keys, order, nil)
				refSortByKey(want, keys, order)
				if !slices.Equal(got, want) {
					t.Fatalf("%s (descending=%v): got %v, want %v", name, order, got, want)
				}
			}
		}
	}
}

// TestSortByKeyWarmArenaZeroAllocs: with its scratch buffer back on a
// warm arena's free list, the sort allocates nothing.
func TestSortByKeyWarmArenaZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := make([]float64, 5000)
	for i := range keys {
		keys[i] = rng.Float64() * 1000
	}
	orig := make([]int32, len(keys))
	for i := range orig {
		orig[i] = int32(i)
	}
	idx := make([]int32, len(keys))
	a := NewScaleArena()
	run := func() {
		copy(idx, orig)
		SortByKey(idx, keys, Descending, a)
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("warm SortByKey allocates %v times per run, want 0", n)
	}
	for i := 1; i < len(idx); i++ {
		if keys[idx[i-1]] < keys[idx[i]] {
			t.Fatalf("not descending at %d", i)
		}
	}
}
