package shp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"bandana/internal/synth"
)

// This file keeps a straightforward implementation of the partitioner —
// map-based vertex lookup, one slice per query, reflection sorts — as a
// test-only reference. The production code in shp.go must produce exactly
// the same Result for every input.

// checkMatchesReference runs Partition and the reference on the same input
// and requires the results to be equal, field by field.
func checkMatchesReference(t *testing.T, n int, queries [][]uint32, opts Options) *Result {
	t.Helper()
	got, err := Partition(n, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePartition(n, queries, opts)
	if i := firstDifference(got.Order, want.Order); i >= 0 {
		t.Fatalf("order differs from the reference at position %d of %d", i, n)
	}
	if got.Levels != want.Levels || got.InitialFanout != want.InitialFanout || got.FinalFanout != want.FinalFanout {
		t.Fatalf("got levels %d fanout %v -> %v, reference levels %d fanout %v -> %v",
			got.Levels, got.InitialFanout, got.FinalFanout, want.Levels, want.InitialFanout, want.FinalFanout)
	}
	return got
}

func firstDifference(a, b []uint32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// synthQueries builds the training queries of every table of the synthetic
// workload the server trains on, at the given scale and seed.
func synthQueries(scale float64, seed int64, requests int) (numVectors []int, queries [][][]uint32) {
	_, w := synth.BuildWorkload(synth.Options{Scale: scale, NumTables: 3, Seed: seed, Requests: requests})
	for _, tr := range w.Traces {
		qs := make([][]uint32, len(tr.Queries))
		for i, q := range tr.Queries {
			qs[i] = q
		}
		numVectors = append(numVectors, tr.NumVectors)
		queries = append(queries, qs)
	}
	return numVectors, queries
}

// randomQueries draws numQueries queries of 0..maxLen ids over the first
// span vectors, repeating an id within a query with probability dup.
func randomQueries(rng *rand.Rand, span, numQueries, maxLen int, dup float64) [][]uint32 {
	queries := make([][]uint32, numQueries)
	for i := range queries {
		q := make([]uint32, rng.Intn(maxLen+1))
		for j := range q {
			if j > 0 && rng.Float64() < dup {
				q[j] = q[rng.Intn(j)]
			} else {
				q[j] = uint32(rng.Intn(span))
			}
		}
		queries[i] = q
	}
	return queries
}

func TestPartitionMatchesReference(t *testing.T) {
	t.Run("synth", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full-scale synthetic workload")
		}
		// The server's default workload (3 tables, 8000 requests), cold
		// start at Train's settings; each seed-1 layout is then
		// warm-started against the seed-2 queries, as an adaptive relayout
		// would be.
		ns, seed1 := synthQueries(0.005, 1, 8000)
		_, seed2 := synthQueries(0.005, 2, 8000)
		for ti, n := range ns {
			t.Run(fmt.Sprintf("table%d", ti+1), func(t *testing.T) {
				t.Parallel()
				cold := checkMatchesReference(t, n, seed1[ti], Options{BlockVectors: 32, Iterations: 16})
				checkMatchesReference(t, n, seed2[ti], Options{BlockVectors: 32, Iterations: 16})
				checkMatchesReference(t, n, seed2[ti], Options{BlockVectors: 32, Iterations: 4, InitialOrder: cold.Order})
			})
		}
	})

	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name    string
		n, bv   int
		queries [][]uint32
	}{
		{"duplicates", 512, 16, randomQueries(rng, 512, 300, 12, 0.5)},
		{"empty and singleton", 256, 8, append(randomQueries(rng, 256, 100, 1, 0), randomQueries(rng, 256, 100, 6, 0)...)},
		{"never queried", 1000, 32, randomQueries(rng, 100, 200, 8, 0.1)},
		{"no queries", 300, 32, nil},
		{"ragged", 1000, 32, randomQueries(rng, 1000, 400, 10, 0.1)},
		{"ragged small", 77, 8, randomQueries(rng, 77, 50, 5, 0.2)},
		{"one block", 16, 32, randomQueries(rng, 16, 20, 4, 0)},
		{"exactly one block", 32, 32, randomQueries(rng, 32, 20, 4, 0)},
		{"single vector", 1, 2, [][]uint32{{0}, {0, 0}, {}}},
		{"community", 2048, 32, communityQueries(2048, 32, 600, 8, 3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, iters := range []int{1, 4} {
				res := checkMatchesReference(t, c.n, c.queries, Options{BlockVectors: c.bv, Iterations: iters})
				warm := slices.Clone(res.Order)
				rand.New(rand.NewSource(int64(iters))).Shuffle(len(warm)/3, func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
				checkMatchesReference(t, c.n, c.queries, Options{BlockVectors: c.bv, Iterations: iters, InitialOrder: warm})
			}
		})
	}
}

// FuzzPartitionMatchesReference partitions small hypergraphs decoded from
// the input and checks that Partition does not panic, returns a
// permutation, and matches the reference. data is a stream of little-endian
// uint16s: a value with the high bit set ends the current query, any other
// value is a vector id (mod n). The seed corpus is in testdata/fuzz.
func FuzzPartitionMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16, bvRaw, itersRaw uint8, warm bool) {
		n := 1 + int(nRaw)%512
		opts := Options{BlockVectors: 2 + int(bvRaw)%31, Iterations: 1 + int(itersRaw)%4}
		var queries [][]uint32
		q := []uint32{}
		for i := 0; i+1 < len(data); i += 2 {
			v := uint16(data[i]) | uint16(data[i+1])<<8
			if v&0x8000 != 0 {
				queries = append(queries, q)
				q = []uint32{}
				continue
			}
			q = append(q, uint32(v)%uint32(n))
		}
		queries = append(queries, q)
		if warm {
			opts.InitialOrder = make([]uint32, n)
			for i, v := range rand.New(rand.NewSource(int64(len(data)))).Perm(n) {
				opts.InitialOrder[i] = uint32(v)
			}
		}
		res := checkMatchesReference(t, n, queries, opts)
		orderIsPermutation(t, res.Order, n)
	})
}

// referencePartition is Partition computed by the reference implementation.
// The caller validates the inputs.
func referencePartition(numVectors int, queries [][]uint32, opts Options) *Result {
	opts.defaults()
	p := &refPartitioner{n: numVectors, queries: queries, opts: opts}
	order := p.run()
	before := opts.InitialOrder
	if before == nil {
		before = identityOrder(numVectors)
	}
	return &Result{
		Order:         order,
		Levels:        p.levels,
		InitialFanout: refAverageFanout(before, queries, opts.BlockVectors),
		FinalFanout:   refAverageFanout(order, queries, opts.BlockVectors),
	}
}

func refAverageFanout(order []uint32, queries [][]uint32, blockVectors int) float64 {
	if len(queries) == 0 {
		return 0
	}
	pos := make([]uint32, len(order))
	for p, id := range order {
		pos[id] = uint32(p)
	}
	var total int64
	seen := make(map[uint32]struct{}, 64)
	for _, q := range queries {
		for k := range seen {
			delete(seen, k)
		}
		for _, id := range q {
			seen[pos[id]/uint32(blockVectors)] = struct{}{}
		}
		total += int64(len(seen))
	}
	return float64(total) / float64(len(queries))
}

type refPartitioner struct {
	n       int
	queries [][]uint32
	opts    Options
	levels  int
}

type refBucket struct {
	vertices []uint32
	queries  [][]uint32
	depth    int
}

func (p *refPartitioner) run() []uint32 {
	var all []uint32
	if p.opts.InitialOrder != nil {
		all = make([]uint32, p.n)
		copy(all, p.opts.InitialOrder)
	} else {
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

	root := &refBucket{vertices: all, queries: p.queries, depth: 0}
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.opts.Workers)
	var maxDepth int
	var mu sync.Mutex

	var recurse func(b *refBucket)
	recurse = func(b *refBucket) {
		mu.Lock()
		if b.depth > maxDepth {
			maxDepth = b.depth
		}
		mu.Unlock()
		if len(b.vertices) <= p.opts.BlockVectors {
			return
		}
		left, right := p.bisect(b)
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

func (p *refPartitioner) bisect(b *refBucket) (*refBucket, *refBucket) {
	n := len(b.vertices)
	half := n / 2

	localOf := make(map[uint32]int32, n)
	for i, v := range b.vertices {
		localOf[v] = int32(i)
	}

	side := make([]uint8, n)
	if p.opts.InitialOrder != nil {
		for i := half; i < n; i++ {
			side[i] = 1
		}
	} else {
		firstSeen := make([]int32, n)
		for i := range firstSeen {
			firstSeen[i] = int32(len(b.queries)) + int32(i%2)
		}
		for qi, q := range b.queries {
			for _, id := range q {
				if li, ok := localOf[id]; ok && firstSeen[li] >= int32(len(b.queries)) {
					firstSeen[li] = int32(qi)
				}
			}
		}
		byFirst := make([]int32, n)
		for i := range byFirst {
			byFirst[i] = int32(i)
		}
		sort.SliceStable(byFirst, func(a, b int) bool { return firstSeen[byFirst[a]] < firstSeen[byFirst[b]] })
		for rank, li := range byFirst {
			if rank >= half {
				side[li] = 1
			}
		}
	}

	local := make([][]int32, 0, len(b.queries))
	for _, q := range b.queries {
		var lq []int32
		for _, id := range q {
			if li, ok := localOf[id]; ok {
				lq = append(lq, li)
			}
		}
		if len(lq) >= 2 {
			local = append(local, lq)
		}
	}

	const moveP = 0.5
	pow := make([]float64, 64)
	pow[0] = 1
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1] * moveP
	}
	powAt := func(k int32) float64 {
		if int(k) >= len(pow) {
			return 0
		}
		return pow[k]
	}

	gain := make([]float64, n)
	for iter := 0; iter < p.opts.Iterations; iter++ {
		for i := range gain {
			gain[i] = 0
		}
		for _, q := range local {
			var cnt0, cnt1 int32
			for _, li := range q {
				if side[li] == 0 {
					cnt0++
				} else {
					cnt1++
				}
			}
			for _, li := range q {
				if side[li] == 0 {
					gain[li] += powAt(cnt0-1) - powAt(cnt1)
				} else {
					gain[li] += powAt(cnt1-1) - powAt(cnt0)
				}
			}
		}
		var cand0, cand1 []int32
		for i := 0; i < n; i++ {
			if side[i] == 0 {
				cand0 = append(cand0, int32(i))
			} else {
				cand1 = append(cand1, int32(i))
			}
		}
		sort.Slice(cand0, func(a, b int) bool { return gain[cand0[a]] > gain[cand0[b]] })
		sort.Slice(cand1, func(a, b int) bool { return gain[cand1[a]] > gain[cand1[b]] })

		maxSwaps := int(p.opts.MaxSwapFraction * float64(half))
		if maxSwaps < 1 {
			maxSwaps = 1
		}
		swaps := 0
		for k := 0; k < len(cand0) && k < len(cand1) && swaps < maxSwaps; k++ {
			a, bb := cand0[k], cand1[k]
			if gain[a]+gain[bb] <= 1e-12 {
				break
			}
			side[a], side[bb] = 1, 0
			swaps++
		}
		if swaps == 0 {
			break
		}
	}

	left := make([]uint32, 0, half)
	right := make([]uint32, 0, n-half)
	for i, v := range b.vertices {
		if side[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	copy(b.vertices[:len(left)], left)
	copy(b.vertices[len(left):], right)

	lb := &refBucket{vertices: b.vertices[:len(left)], queries: refProjectQueries(b.queries, side, localOf, 0), depth: b.depth + 1}
	rb := &refBucket{vertices: b.vertices[len(left):], queries: refProjectQueries(b.queries, side, localOf, 1), depth: b.depth + 1}
	return lb, rb
}

func refProjectQueries(queries [][]uint32, side []uint8, localOf map[uint32]int32, want uint8) [][]uint32 {
	out := make([][]uint32, 0, len(queries)/2)
	for _, q := range queries {
		var pq []uint32
		for _, id := range q {
			li, ok := localOf[id]
			if !ok {
				continue
			}
			if side[li] == want {
				pq = append(pq, id)
			}
		}
		if len(pq) >= 2 {
			out = append(out, pq)
		}
	}
	return out
}
