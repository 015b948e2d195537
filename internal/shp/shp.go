// Package shp implements the supervised partitioner Bandana uses in
// production: a Social Hash Partitioner (Kabiljo et al., VLDB 2017) over the
// lookup hypergraph.
//
// Vertices are embedding vectors; hyperedges are queries (the set of vectors
// a single request looked up). The goal is a balanced partition of the
// vectors into NVM blocks that minimises the average *fanout* — the number
// of distinct blocks a query has to read (Equation 3 of the Bandana paper).
//
// The algorithm is recursive balanced bisection: starting from one bucket
// holding every vector, each bucket is repeatedly split into two equal
// halves. The initial split is deterministic: a cold start orders vertices
// by the first query they appear in, a warm start (Repartition) keeps the
// incoming arrangement. A split is refined with a configurable number of
// swap iterations: each iteration computes, for every vertex, the fanout
// gain of moving it to the other side, and then swaps the highest-gain pairs
// so the two sides stay balanced. Recursion stops when buckets reach the
// target block size (32 vectors for 128 B vectors in 4 KB blocks).
//
// A bucket stores its queries flat — one offsets array plus one slice of
// bucket-local vertex indices — so a bisection touches no maps and makes a
// fixed number of allocations however many queries it refines. Only the
// root maps vector ids to indices; each bisection hands its two children
// their queries already renumbered. Sibling buckets are disjoint and are
// refined in parallel, up to Options.Workers at a time; the work inside one
// bisection is sequential.
package shp

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Options configures a partitioning run.
type Options struct {
	// BlockVectors is the target number of vectors per block (bucket leaf
	// size). Defaults to 32.
	BlockVectors int
	// Iterations is the number of swap-refinement iterations per bisection
	// level (the paper uses 16).
	Iterations int
	// Workers bounds the number of buckets refined concurrently. Defaults
	// to GOMAXPROCS.
	Workers int
	// MaxSwapFraction caps the fraction of a side that may be swapped in a
	// single iteration (guards against oscillation). Defaults to 0.2.
	MaxSwapFraction float64
	// InitialOrder warm-starts the partitioner from an existing placement
	// (e.g. the layout currently on NVM): the working order starts as
	// InitialOrder and every bisection seeds its split from the incoming
	// arrangement instead of first-co-access order, so refinement is
	// incremental — few iterations suffice to adapt a good layout to a
	// drifted workload, and with zero signal the old layout survives
	// unchanged. Must be a permutation of [0, numVectors). Nil starts from
	// scratch (Repartition sets it for you).
	InitialOrder []uint32
}

func (o *Options) defaults() {
	if o.BlockVectors <= 0 {
		o.BlockVectors = 32
	}
	if o.Iterations <= 0 {
		o.Iterations = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxSwapFraction <= 0 || o.MaxSwapFraction > 1 {
		o.MaxSwapFraction = 0.2
	}
}

// Result is the outcome of a partitioning run.
type Result struct {
	// Order is the physical placement: Order[pos] = vector ID.
	Order []uint32
	// Levels is the number of bisection levels performed.
	Levels int
	// InitialFanout and FinalFanout are the average query fanout before and
	// after partitioning, measured on the training queries with the target
	// block size.
	InitialFanout float64
	FinalFanout   float64
}

// Partition partitions numVectors vectors using the training queries.
// Vectors that never appear in a query are appended at arbitrary positions
// in blocks with free space, as in the paper (§4.3.2).
func Partition(numVectors int, queries [][]uint32, opts Options) (*Result, error) {
	if numVectors <= 0 {
		return nil, fmt.Errorf("shp: no vectors to partition")
	}
	opts.defaults()
	for qi, q := range queries {
		for _, id := range q {
			if int(id) >= numVectors {
				return nil, fmt.Errorf("shp: query %d references vector %d outside table of %d", qi, id, numVectors)
			}
		}
	}

	if opts.InitialOrder != nil {
		if err := validateOrder(opts.InitialOrder, numVectors); err != nil {
			return nil, err
		}
	}

	p := &partitioner{
		n:       numVectors,
		queries: queries,
		opts:    opts,
	}
	order := p.run()

	res := &Result{Order: order, Levels: p.levels}
	// Fanout measured against the training hypergraph. The baseline is the
	// placement the run started from: identity for a cold start, the
	// warm-start order for an incremental run — so InitialFanout-FinalFanout
	// is directly the predicted gain of migrating to the new layout.
	before := opts.InitialOrder
	if before == nil {
		before = identityOrder(numVectors)
	}
	res.InitialFanout = averageFanout(before, queries, opts.BlockVectors)
	res.FinalFanout = averageFanout(order, queries, opts.BlockVectors)
	return res, nil
}

// Repartition incrementally re-partitions an existing placement against a
// fresh set of queries: the run is warm-started from prev (see
// Options.InitialOrder), making it the entry point for online background
// re-layout, where the workload has drifted but the current layout is still
// a far better seed than a random split.
func Repartition(prev []uint32, queries [][]uint32, opts Options) (*Result, error) {
	opts.InitialOrder = prev
	return Partition(len(prev), queries, opts)
}

// validateOrder checks that order is a permutation of [0, n).
func validateOrder(order []uint32, n int) error {
	if len(order) != n {
		return fmt.Errorf("shp: initial order covers %d vectors, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if int(id) >= n || seen[id] {
			return fmt.Errorf("shp: initial order is not a permutation (vector %d)", id)
		}
		seen[id] = true
	}
	return nil
}

func identityOrder(n int) []uint32 {
	o := make([]uint32, n)
	for i := range o {
		o[i] = uint32(i)
	}
	return o
}

// averageFanout computes the mean number of distinct blocks per query for a
// given placement order.
func averageFanout(order []uint32, queries [][]uint32, blockVectors int) float64 {
	if len(queries) == 0 {
		return 0
	}
	blockOf := make([]uint32, len(order))
	for p, id := range order {
		blockOf[id] = uint32(p) / uint32(blockVectors)
	}
	// stamp[b] is 1 + the index of the last query that touched block b, so
	// nothing needs clearing between queries.
	stamp := make([]int, (len(order)+blockVectors-1)/blockVectors)
	var total int64
	for qi, q := range queries {
		for _, id := range q {
			if b := blockOf[id]; stamp[b] != qi+1 {
				stamp[b] = qi + 1
				total++
			}
		}
	}
	return float64(total) / float64(len(queries))
}

// partitioner holds the shared state of one run.
type partitioner struct {
	n       int
	queries [][]uint32
	opts    Options
	levels  int
}

// bucket is a contiguous range of the working order slice under refinement.
type bucket struct {
	vertices []uint32 // vector IDs in this bucket (mutated in place)
	queries  hyperedges
	depth    int
}

// hyperedges holds a bucket's queries flat, in bucket-local vertex indices
// (positions in bucket.vertices): query q is idx[off[q]:off[q+1]].
type hyperedges struct {
	off []int
	idx []int32
}

func (h hyperedges) len() int { return len(h.off) - 1 }

func (h hyperedges) query(q int) []int32 { return h.idx[h.off[q]:h.off[q+1]] }

func (p *partitioner) run() []uint32 {
	var all []uint32
	if p.opts.InitialOrder != nil {
		// Warm start: begin from the existing placement so refinement is
		// incremental (the swap iterations only move vectors whose
		// co-access changed).
		all = make([]uint32, p.n)
		copy(all, p.opts.InitialOrder)
	} else {
		// Start with all vectors in one bucket. Vectors that appear in
		// queries come first (they carry signal); untouched vectors are
		// appended at the end so they fill whatever blocks remain — the
		// paper notes SHP places rarely-accessed vectors arbitrarily.
		appears := make([]bool, p.n)
		for _, q := range p.queries {
			for _, id := range q {
				appears[id] = true
			}
		}
		touched := make([]uint32, 0, p.n)
		untouched := make([]uint32, 0)
		for id := 0; id < p.n; id++ {
			if appears[id] {
				touched = append(touched, uint32(id))
			} else {
				untouched = append(untouched, uint32(id))
			}
		}
		all = append(touched, untouched...)
	}

	// The root bucket keeps every query, even those with fewer than two
	// members: a cold start's first-seen split counts them, a one-member
	// query adds a zero gain, and projection drops them from the children.
	localOf := make([]int32, p.n)
	for i, v := range all {
		localOf[v] = int32(i)
	}
	total := 0
	for _, q := range p.queries {
		total += len(q)
	}
	rootQueries := hyperedges{off: make([]int, 1, len(p.queries)+1), idx: make([]int32, 0, total)}
	for _, q := range p.queries {
		for _, id := range q {
			rootQueries.idx = append(rootQueries.idx, localOf[id])
		}
		rootQueries.off = append(rootQueries.off, len(rootQueries.idx))
	}

	root := &bucket{vertices: all, queries: rootQueries, depth: 0}
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.opts.Workers)
	var maxDepth int
	var mu sync.Mutex

	var recurse func(b *bucket)
	recurse = func(b *bucket) {
		mu.Lock()
		if b.depth > maxDepth {
			maxDepth = b.depth
		}
		mu.Unlock()
		if len(b.vertices) <= p.opts.BlockVectors {
			return
		}
		left, right := p.bisect(b)
		// Refine children concurrently when workers are available.
		wg.Add(1)
		select {
		case sem <- struct{}{}:
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				recurse(left)
			}()
		default:
			recurse(left)
			wg.Done()
		}
		recurse(right)
	}
	recurse(root)
	wg.Wait()
	p.levels = maxDepth + 1
	return root.vertices
}

// bisect splits a bucket's vertices (in place) into two balanced halves with
// minimised fanout, and returns child buckets that alias the two halves.
// It consumes b.queries.
func (p *partitioner) bisect(b *bucket) (*bucket, *bucket) {
	n := len(b.vertices)
	half := n / 2

	// Initial split: side[i] is 0 (left) or 1. A warm-started run preserves
	// the incoming arrangement (the first half of the existing order goes
	// left), so the previous layout's block grouping is the seed at every
	// level and refinement perturbs it only where the new queries disagree.
	// A cold start orders vertices by the first query (hyperedge) they
	// appear in, so that vertices co-accessed by the same queries start on
	// the same side. The swap refinement polishes either seed.
	side := make([]uint8, n)
	if p.opts.InitialOrder != nil {
		for i := half; i < n; i++ {
			side[i] = 1
		}
	} else {
		firstSeenSplit(side, b.queries, half)
	}

	queries := b.queries
	b.queries = hyperedges{}
	p.refine(side, queries, half)

	// Rearrange the vertices slice in place, side-0 vertices first, and
	// renumber each vertex to its index within its half. Swaps come in
	// pairs, so side 0 still holds exactly half of the vertices.
	newIdx := make([]int32, n)
	moved := make([]uint32, n)
	l, r := 0, half
	for i, v := range b.vertices {
		if side[i] == 0 {
			newIdx[i] = int32(l)
			moved[l] = v
			l++
		} else {
			newIdx[i] = int32(r - half)
			moved[r] = v
			r++
		}
	}
	copy(b.vertices, moved)

	lq, rq := queries.project(side, newIdx)
	lb := &bucket{vertices: b.vertices[:half], queries: lq, depth: b.depth + 1}
	rb := &bucket{vertices: b.vertices[half:], queries: rq, depth: b.depth + 1}
	return lb, rb
}

// firstSeenSplit fills side with a cold-start split: vertices ranked by the
// first query they appear in (ties by index; vertices no query names rank
// last, even indices before odd ones), the lower half on side 0. The
// ranking is a stable counting sort on the first-seen query index.
func firstSeenSplit(side []uint8, queries hyperedges, half int) {
	nq := int32(queries.len())
	first := make([]int32, len(side))
	for i := range first {
		first[i] = nq + int32(i%2)
	}
	for q := int32(0); q < nq; q++ {
		for _, li := range queries.query(int(q)) {
			if first[li] >= nq {
				first[li] = q
			}
		}
	}
	next := make([]int32, nq+2) // next[k]: rank of the next vertex with key k
	for _, k := range first {
		next[k]++
	}
	var sum int32
	for k, c := range next {
		next[k] = sum
		sum += c
	}
	for li, k := range first {
		if next[k] >= int32(half) {
			side[li] = 1
		}
		next[k]++
	}
}

// project splits h between the halves of a bisection: each member goes to
// its vertex's side, renumbered by newIdx, and a side keeps a query only if
// at least two of its members landed there. Both outputs are sized exactly.
func (h hyperedges) project(side []uint8, newIdx []int32) (left, right hyperedges) {
	var nq, size [2]int
	for q := 0; q < h.len(); q++ {
		m := h.query(q)
		c1 := sideCount(m, side)
		if c0 := len(m) - c1; c0 >= 2 {
			nq[0]++
			size[0] += c0
		}
		if c1 >= 2 {
			nq[1]++
			size[1] += c1
		}
	}
	var out [2]hyperedges
	for s := range out {
		out[s] = hyperedges{off: make([]int, 1, nq[s]+1), idx: make([]int32, 0, size[s])}
	}
	for q := 0; q < h.len(); q++ {
		m := h.query(q)
		c1 := sideCount(m, side)
		for s, c := range [2]int{len(m) - c1, c1} {
			if c < 2 {
				continue
			}
			for _, li := range m {
				if side[li] == uint8(s) {
					out[s].idx = append(out[s].idx, newIdx[li])
				}
			}
			out[s].off = append(out[s].off, len(out[s].idx))
		}
	}
	return out[0], out[1]
}

// sideCount returns how many members of a query are on side 1.
func sideCount(members []int32, side []uint8) int {
	c := 0
	for _, li := range members {
		c += int(side[li])
	}
	return c
}

// movePow[k] = moveP^k for the smoothed move gain (see refine).
var movePow = func() (pow [64]float64) {
	const moveP = 0.5
	pow[0] = 1
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1] * moveP
	}
	return pow
}()

// powAt returns moveP^k, and 0 past the table. A negative k comes from a
// side with no members, whose term is never used.
func powAt(k int32) float64 {
	if k < 0 || int(k) >= len(movePow) {
		return 0
	}
	return movePow[k]
}

// candidate is a vertex offered for a swap, with its move gain.
type candidate struct {
	gain float64
	idx  int32
}

// byGainDesc orders candidates by descending gain. Ties keep the order the
// sort leaves them in, so the layout depends on the sort algorithm as well
// as on the gains: keep this a slices.SortFunc over candidates in vertex
// order.
func byGainDesc(a, b candidate) int {
	switch {
	case a.gain > b.gain:
		return -1
	case a.gain < b.gain:
		return 1
	}
	return 0
}

// refine runs the swap iterations on one bisection's split.
//
// Refinement uses the Social Hash Partitioner's smoothed move gain: for a
// query with cntSame co-located vertices (including v) and cntOther vertices
// on the far side, moving v is worth
//
//	p^(cntSame-1) - p^cntOther        (p = 0.5)
//
// which reduces to the exact fanout delta when the counts are 0/1 but,
// unlike the exact delta, still provides a gradient when queries span both
// sides — exactly the situation at the top bisection levels.
func (p *partitioner) refine(side []uint8, queries hyperedges, half int) {
	n := len(side)
	gain := make([]float64, n)
	cand0 := make([]candidate, 0, half)
	cand1 := make([]candidate, 0, n-half)
	maxSwaps := int(p.opts.MaxSwapFraction * float64(half))
	if maxSwaps < 1 {
		maxSwaps = 1
	}
	for iter := 0; iter < p.opts.Iterations; iter++ {
		clear(gain)
		// Accumulate per-vertex move gains query by query; each query's
		// two terms are computed once.
		for q := 0; q < queries.len(); q++ {
			m := queries.query(q)
			cnt1 := int32(sideCount(m, side))
			cnt0 := int32(len(m)) - cnt1
			term := [2]float64{powAt(cnt0-1) - powAt(cnt1), powAt(cnt1-1) - powAt(cnt0)}
			for _, li := range m {
				gain[li] += term[side[li]]
			}
		}
		// Candidate lists sorted by descending gain.
		cand0, cand1 = cand0[:0], cand1[:0]
		for i, s := range side {
			if s == 0 {
				cand0 = append(cand0, candidate{gain[i], int32(i)})
			} else {
				cand1 = append(cand1, candidate{gain[i], int32(i)})
			}
		}
		slices.SortFunc(cand0, byGainDesc)
		slices.SortFunc(cand1, byGainDesc)

		swaps := 0
		for k := 0; k < len(cand0) && k < len(cand1) && swaps < maxSwaps; k++ {
			a, b := cand0[k], cand1[k]
			if a.gain+b.gain <= 1e-12 {
				break
			}
			side[a.idx], side[b.idx] = 1, 0
			swaps++
		}
		if swaps == 0 {
			break
		}
	}
}
