package shp

import (
	"testing"
)

func orderIsPermutation(t *testing.T, order []uint32, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if int(id) >= n || seen[id] {
			t.Fatalf("order is not a permutation at %d", id)
		}
		seen[id] = true
	}
}

func TestRepartitionWarmStartKeepsGoodLayout(t *testing.T) {
	const n, block = 2048, 32
	queries := communityQueries(n, block, 600, 8, 1)
	cold, err := Partition(n, queries, Options{BlockVectors: block, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Re-partitioning the already-good layout against the same queries must
	// not regress it, even with very few refinement iterations.
	warm, err := Repartition(cold.Order, queries, Options{BlockVectors: block, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	orderIsPermutation(t, warm.Order, n)
	if warm.InitialFanout != cold.FinalFanout {
		t.Fatalf("warm InitialFanout %.3f should measure the previous layout (%.3f)",
			warm.InitialFanout, cold.FinalFanout)
	}
	if warm.FinalFanout > warm.InitialFanout*1.02 {
		t.Fatalf("warm restart regressed fanout: %.3f -> %.3f", warm.InitialFanout, warm.FinalFanout)
	}
}

func TestRepartitionAdaptsToDriftedQueries(t *testing.T) {
	const n, block = 2048, 32
	oldQueries := communityQueries(n, block, 600, 8, 1)
	newQueries := communityQueries(n, block, 600, 8, 99) // different community structure

	cold, err := Partition(n, oldQueries, Options{BlockVectors: block, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Repartition(cold.Order, newQueries, Options{BlockVectors: block, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	orderIsPermutation(t, warm.Order, n)
	if warm.FinalFanout >= warm.InitialFanout {
		t.Fatalf("repartition on drifted queries did not improve fanout: %.3f -> %.3f",
			warm.InitialFanout, warm.FinalFanout)
	}
}

func TestRepartitionRejectsBadOrder(t *testing.T) {
	queries := [][]uint32{{0, 1}}
	if _, err := Repartition([]uint32{0, 0, 1}, queries, Options{}); err == nil {
		t.Fatal("duplicate entries accepted")
	}
	if _, err := Repartition([]uint32{0, 5}, queries, Options{}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}
