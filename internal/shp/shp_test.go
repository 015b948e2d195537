package shp

import (
	"math/rand"
	"testing"

	"bandana/internal/trace"
)

// communityQueries builds a synthetic hypergraph where each query draws its
// lookups from a single community of vectors, with communities scattered
// across the ID space. A good partitioner should co-locate each community.
func communityQueries(numVectors, communitySize, numQueries, lookupsPerQuery int, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	numCommunities := numVectors / communitySize
	// Scatter: communityOf[id] via random permutation.
	perm := rng.Perm(numVectors)
	members := make([][]uint32, numCommunities)
	for i, v := range perm {
		c := i / communitySize
		if c >= numCommunities {
			c = numCommunities - 1
		}
		members[c] = append(members[c], uint32(v))
	}
	queries := make([][]uint32, numQueries)
	for q := range queries {
		c := rng.Intn(numCommunities)
		qs := make([]uint32, 0, lookupsPerQuery)
		seen := map[uint32]bool{}
		for len(qs) < lookupsPerQuery {
			id := members[c][rng.Intn(len(members[c]))]
			if !seen[id] {
				seen[id] = true
				qs = append(qs, id)
			}
		}
		queries[q] = qs
	}
	return queries
}

func TestPartitionProducesValidPermutation(t *testing.T) {
	queries := communityQueries(2048, 32, 500, 8, 1)
	res, err := Partition(2048, queries, Options{BlockVectors: 32, Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 2048 {
		t.Fatalf("order length %d", len(res.Order))
	}
	seen := make([]bool, 2048)
	for _, id := range res.Order {
		if seen[id] {
			t.Fatalf("duplicate id %d in order", id)
		}
		seen[id] = true
	}
	if res.Levels < 5 {
		t.Fatalf("expected several bisection levels, got %d", res.Levels)
	}
}

func TestPartitionReducesFanout(t *testing.T) {
	queries := communityQueries(4096, 32, 2000, 10, 2)
	res, err := Partition(4096, queries, Options{BlockVectors: 32, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFanout >= res.InitialFanout {
		t.Fatalf("fanout did not improve: initial %.2f final %.2f", res.InitialFanout, res.FinalFanout)
	}
	// With perfectly community-structured queries, the final fanout should
	// approach the ideal of ~ lookups/blockVectors per query (close to 1-2
	// blocks), far below the random-placement fanout (~10 blocks for 10
	// lookups).
	if res.FinalFanout > res.InitialFanout*0.6 {
		t.Fatalf("expected at least 40%% fanout reduction, got %.2f -> %.2f",
			res.InitialFanout, res.FinalFanout)
	}
}

func TestPartitionImprovesWithIterations(t *testing.T) {
	queries := communityQueries(2048, 32, 1000, 8, 5)
	none, err := Partition(2048, queries, Options{BlockVectors: 32, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Partition(2048, queries, Options{BlockVectors: 32, Iterations: 16})
	if err != nil {
		t.Fatal(err)
	}
	if many.FinalFanout > none.FinalFanout+0.3 {
		t.Fatalf("more iterations should not be clearly worse: 1 iter %.2f, 16 iter %.2f",
			none.FinalFanout, many.FinalFanout)
	}
}

func TestPartitionHandlesUntouchedVectors(t *testing.T) {
	// Only the first 100 vectors appear in queries; the rest must still be
	// placed exactly once.
	queries := make([][]uint32, 50)
	rng := rand.New(rand.NewSource(9))
	for i := range queries {
		q := make([]uint32, 5)
		for j := range q {
			q[j] = uint32(rng.Intn(100))
		}
		queries[i] = q
	}
	res, err := Partition(1000, queries, Options{BlockVectors: 32, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 1000)
	for _, id := range res.Order {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("vector %d missing from order", id)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(0, nil, Options{}); err == nil {
		t.Fatal("zero vectors should error")
	}
	if _, err := Partition(10, [][]uint32{{1, 20}}, Options{}); err == nil {
		t.Fatal("out-of-range query should error")
	}
}

func TestPartitionSmallTableSingleBlock(t *testing.T) {
	res, err := Partition(16, [][]uint32{{1, 2}, {3, 4}}, Options{BlockVectors: 32, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 16 {
		t.Fatalf("order length %d", len(res.Order))
	}
	if res.FinalFanout != 1 {
		t.Fatalf("single block fanout should be 1, got %.2f", res.FinalFanout)
	}
}

func TestPartitionDeterministicInSeed(t *testing.T) {
	queries := communityQueries(1024, 32, 300, 6, 4)
	a, _ := Partition(1024, queries, Options{BlockVectors: 32, Iterations: 6})
	b, _ := Partition(1024, queries, Options{BlockVectors: 32, Iterations: 6})
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

func TestPartitionOnGeneratedTrace(t *testing.T) {
	// End-to-end against the workload generator: SHP must substantially
	// reduce fanout for a high-locality profile.
	p := trace.Profile{
		Name: "t", NumVectors: 8192, AvgLookups: 20,
		CompulsoryMissFrac: 0.05, Locality: 0.95, CommunitySize: 64, ReuseSkew: 3, Seed: 3,
	}
	tr := trace.GenerateTable(p, 2000)
	queries := make([][]uint32, len(tr.Queries))
	for i, q := range tr.Queries {
		queries[i] = q
	}
	res, err := Partition(p.NumVectors, queries, Options{BlockVectors: 32, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFanout > res.InitialFanout*0.75 {
		t.Fatalf("SHP should cut fanout by at least 25%% on a high-locality trace: %.2f -> %.2f",
			res.InitialFanout, res.FinalFanout)
	}
}

func TestAverageFanoutEmptyQueries(t *testing.T) {
	if f := averageFanout(identityOrder(10), nil, 4); f != 0 {
		t.Fatalf("fanout of empty query set should be 0, got %g", f)
	}
}

func BenchmarkPartition8k(b *testing.B) {
	queries := communityQueries(8192, 32, 2000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(8192, queries, Options{BlockVectors: 32, Iterations: 8})
	}
}

// BenchmarkPartitionSynth partitions the heaviest table of the server's
// default synthetic workload (scale 0.005, seed 1, 8000 requests) at
// Train's settings.
func BenchmarkPartitionSynth(b *testing.B) {
	ns, qs := synthQueries(0.005, 1, 8000)
	const heaviest = 1 // table2 has the most lookups per query and partitions slowest
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Partition(ns[heaviest], qs[heaviest], Options{BlockVectors: 32, Iterations: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
