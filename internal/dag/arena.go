package dag

// ScaleArena is the reusable scratch allocator of the million-node
// pipeline. Every dense array the streaming readers and the compact
// kernels need — int32 index tables, float64 level/weight tables, bool
// bitmaps — is acquired from the arena instead of
// make, so a serving loop that parses and schedules the same-shaped
// graph repeatedly allocates only on the first (cold) pass and runs
// allocation-free warm.
//
// The contract:
//
//   - Acquire methods (I32, F64, Bool) return a zeroed slice of
//     the requested length, so code written against make's
//     zero-initialization semantics is bit-identical with or without an
//     arena.
//   - Append methods (AppendI32, AppendF64) grow a slice through the
//     arena with the same doubling policy append uses. Outgrown rungs
//     go back on the free list, so concurrently growing arrays trade
//     them and a warm run replays the cold run's ladder without
//     allocating.
//   - Release returns a slab to the free list early, letting a later
//     same-sized acquire reuse its memory within one run (the streaming
//     readers recycle the raw edge-endpoint arrays into the successor
//     arenas this way).
//   - Reset returns every slab to the free list. It INVALIDATES all
//     previously returned slices, including any CSR or schedule built
//     from them: callers must be done with the previous run's outputs
//     before resetting.
//
// A nil *ScaleArena is valid everywhere and falls back to plain make,
// safe for concurrent use. A non-nil
// arena is single-goroutine scratch: no locking, no sharing.
//
// Acquire is best-fit over the free list (smallest capacity that
// fits). A warm run repeating the cold run's acquisition sequence
// therefore gets every slab back exactly, and the arena's footprint
// converges to the cold run's live set — it never grows across
// same-shaped runs.
type ScaleArena struct {
	i32   slabPool[int32]
	f64   slabPool[float64]
	bools slabPool[bool]

	// scanBuf and fields are the streaming readers' line scratch: the
	// bufio.Scanner buffer and the per-line field-split table. One of
	// each per arena — the readers run one parse at a time.
	scanBuf []byte
	fields  [][]byte

	// csrShell is the reusable CSR header the streaming readers hand
	// out, so a warm parse allocates nothing at all. One per arena: the
	// arena serves one graph per Reset cycle.
	csrShell CSR
}

// csr returns the CSR shell the next parse should fill: the arena's
// reusable shell (zeroed), or a fresh one on a nil arena.
func (a *ScaleArena) csr() *CSR {
	if a == nil {
		return &CSR{}
	}
	a.csrShell = CSR{}
	return &a.csrShell
}

// NewScaleArena returns an empty arena. The zero value is also ready
// to use; the constructor exists for call-site clarity.
func NewScaleArena() *ScaleArena { return &ScaleArena{} }

// I32 returns a zeroed []int32 of length n.
func (a *ScaleArena) I32(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.i32.acquire(n)
}

// F64 returns a zeroed []float64 of length n.
func (a *ScaleArena) F64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64.acquire(n)
}

// Bool returns a zeroed []bool of length n.
func (a *ScaleArena) Bool(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return a.bools.acquire(n)
}

// AppendI32 appends x to s, growing through the arena when capacity is
// exhausted.
func (a *ScaleArena) AppendI32(s []int32, x int32) []int32 {
	if len(s) == cap(s) {
		if a == nil {
			return append(s, x)
		}
		s = a.i32.regrow(s)
	}
	return append(s, x)
}

// AppendF64 appends x to s, growing through the arena when capacity is
// exhausted.
func (a *ScaleArena) AppendF64(s []float64, x float64) []float64 {
	if len(s) == cap(s) {
		if a == nil {
			return append(s, x)
		}
		s = a.f64.regrow(s)
	}
	return append(s, x)
}

// ReleaseI32 returns s's slab to the free list (a no-op for slices the
// arena does not own, and on a nil arena). The caller must not touch s
// afterwards.
func (a *ScaleArena) ReleaseI32(s []int32) {
	if a != nil {
		a.i32.release(s)
	}
}

// ReleaseF64 returns s's slab to the free list.
func (a *ScaleArena) ReleaseF64(s []float64) {
	if a != nil {
		a.f64.release(s)
	}
}

// Reset returns every slab to the free list for the next run. All
// slices previously handed out — including arrays inside a CSR, a
// CompactLevels or a sched.Flat built from this arena — are invalidated
// and will be overwritten by the next acquirer.
func (a *ScaleArena) Reset() {
	if a == nil {
		return
	}
	a.i32.reset()
	a.f64.reset()
	a.bools.reset()
}

// Footprint returns the total bytes of all slabs the arena currently
// owns, handed out or free — the arena's contribution to the live heap.
func (a *ScaleArena) Footprint() int64 {
	if a == nil {
		return 0
	}
	var b int64
	for _, s := range a.i32.slabs {
		b += int64(cap(s)) * 4
	}
	for _, s := range a.f64.slabs {
		b += int64(cap(s)) * 8
	}
	for _, s := range a.bools.slabs {
		b += int64(cap(s))
	}
	return b + int64(cap(a.scanBuf))
}

// lineScratch hands out the readers' scanner buffer and field table,
// allocating them on first use (or fresh on a nil arena).
func (a *ScaleArena) lineScratch() (buf []byte, fields [][]byte) {
	if a == nil {
		return make([]byte, 1<<20), nil
	}
	if a.scanBuf == nil {
		a.scanBuf = make([]byte, 1<<20)
	}
	return a.scanBuf, a.fields[:0]
}

// storeFields keeps the (possibly grown) field table for the next parse.
func (a *ScaleArena) storeFields(fields [][]byte) {
	if a != nil {
		a.fields = fields
	}
}

// slabPool is one typed slab store: every slab the pool owns plus the
// indices of those currently free. Slabs are allocated at exactly the
// requested length (no rounding), so a repeated acquisition sequence
// hits exact capacities and the pool's footprint matches the live set
// of a single run.
type slabPool[T any] struct {
	slabs [][]T // full-capacity views of every owned slab
	free  []int // indices into slabs currently available
}

// acquire returns a zeroed slice of length n, preferring the smallest
// free slab that fits.
func (p *slabPool[T]) acquire(n int) []T {
	if n == 0 {
		// Never bind a slab to a zero-length request (any free slab
		// would best-fit it). make of size 0 is allocation-free.
		return make([]T, 0)
	}
	best := -1
	for i, fi := range p.free {
		c := cap(p.slabs[fi])
		if c < n {
			continue
		}
		if best < 0 || c < cap(p.slabs[p.free[best]]) {
			best = i
		}
	}
	if best >= 0 {
		fi := p.free[best]
		last := len(p.free) - 1
		p.free[best] = p.free[last]
		p.free = p.free[:last]
		s := p.slabs[fi][:n]
		clear(s)
		return s
	}
	s := make([]T, n)
	p.slabs = append(p.slabs, s)
	return s
}

// regrow moves s to a slab with at least double the capacity (append's
// growth shape) and releases the old slab back to the free list. The
// growth ladder's rungs therefore stay pooled — concurrently growing
// arrays trade them among each other, and a warm run replays the cold
// run's ladder without allocating. The ladder retains at most ~1x the
// final array on top of it (a geometric sum), and only inside the
// arena's footprint, never in the nil-arena path the peak-B/node
// benchmark series measures.
func (p *slabPool[T]) regrow(s []T) []T {
	need := 2 * cap(s)
	if need < 64 {
		need = 64
	}
	grown := p.acquire(need)[:len(s)]
	copy(grown, s)
	p.release(s)
	return grown
}

// release returns s's slab to the free list; unknown slices are ignored.
func (p *slabPool[T]) release(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:1]
	for i, slab := range p.slabs {
		if len(slab) > 0 && &slab[0] == &s[0] {
			p.free = append(p.free, i)
			return
		}
	}
}

// reset marks every slab free.
func (p *slabPool[T]) reset() {
	p.free = p.free[:0]
	for i := range p.slabs {
		p.free = append(p.free, i)
	}
}
