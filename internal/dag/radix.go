package dag

import "math"

// KeyOrder is the direction of SortByKey.
type KeyOrder bool

const (
	// Ascending sorts smallest key first.
	Ascending KeyOrder = false
	// Descending sorts largest key first.
	Descending KeyOrder = true
)

// SortByKey stably sorts the node indices idx by keys[idx[i]] in the
// given direction, in O(len(idx)) time: an LSD radix sort over 8-bit
// digits of each key's order-preserving bit image. Equal keys keep
// their order in idx, and -0.0 sorts as +0.0, so the result is exactly
// what a stable comparison sort with < (or >) on the keys would give.
// NaN keys sort by their bits; callers that must order them reject
// them first.
//
// One histogram pass counts every digit; a digit on which all keys
// agree (the low mantissa bytes of integer-valued keys, the exponent
// byte of keys within one binade) costs no scatter pass. The only
// scratch is one index buffer of len(idx), drawn from a (fresh on a
// nil arena) and released on return; the histograms live on the stack.
func SortByKey(idx []int32, keys []float64, order KeyOrder, a *ScaleArena) {
	n := len(idx)
	if n < 2 {
		return
	}
	var hist [8][256]int32
	for _, x := range idx {
		k := sortKey(keys[x], order)
		for d := range hist {
			hist[d][byte(k>>(8*d))]++
		}
	}
	first := sortKey(keys[idx[0]], order)
	buf := a.I32(n)
	src, dst := idx, buf
	for d := range hist {
		h := &hist[d]
		shift := uint(8 * d)
		if h[byte(first>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, x := range src {
			b := byte(sortKey(keys[x], order) >> shift)
			dst[h[b]] = x
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
	a.ReleaseI32(buf)
}

// sortKey maps x to an unsigned image whose order is x's order (or its
// reverse for Descending): the sign bit flipped on non-negatives, every
// bit flipped on negatives, -0.0 folded onto +0.0 first.
func sortKey(x float64, order KeyOrder) uint64 {
	if x == 0 {
		x = 0
	}
	k := math.Float64bits(x)
	if k>>63 != 0 {
		k = ^k
	} else {
		k |= 1 << 63
	}
	if order == Descending {
		k = ^k
	}
	return k
}
