// Partitioning: compare physical placement strategies for one table.
//
// This example reproduces, at example scale, the paper's §4.2 comparison:
// how much effective NVM bandwidth each placement strategy recovers on a
// high-locality embedding table — the original (ID) order, a random order,
// semantic K-means clustering of the embedding values, and supervised SHP
// partitioning of the lookup hypergraph.
//
// Run with:
//
//	go run ./examples/partitioning
package main

import (
	"fmt"
	"log"
	"time"

	"bandana"
)

func main() {
	const (
		numVectors = 16384
		dim        = 32
		requests   = 2500
	)
	// A high-locality profile (similar to the paper's table 2).
	profile := bandana.Profile{
		Name:               "demo",
		NumVectors:         numVectors,
		AvgLookups:         40,
		CompulsoryMissFrac: 0.05,
		Locality:           0.92,
		CommunitySize:      64,
		ReuseSkew:          3,
		Seed:               11,
	}
	full := bandana.GenerateTrace(profile, requests)
	train, eval := full.Split(0.6)

	// Embeddings whose geometry reflects the co-access communities.
	emb := bandana.GenerateTable("demo", bandana.TableGenerateOptions{
		NumVectors:    numVectors,
		Dim:           dim,
		NumClusters:   numVectors / 64,
		ClusterSpread: 0.12, // co-accessed vectors end up close in embedding space
		Seed:          3,
		Assignments:   bandana.CommunityAssignment(profile),
	}).Table

	type strategy struct {
		name   string
		layout *bandana.Layout
		took   time.Duration
	}
	var strategies []strategy

	// 1. Original (identity) order.
	strategies = append(strategies, strategy{"original (ID order)", bandana.IdentityLayout(numVectors, 32), 0})

	// 2. Semantic partitioning with K-means over the embedding values.
	start := time.Now()
	km, err := bandana.ClusterTable(emb, bandana.KMeansOptions{K: 256, MaxIters: 6, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	kmLayout, err := bandana.LayoutFromOrder(bandana.OrderByCluster(km.Assignments), 32)
	if err != nil {
		log.Fatal(err)
	}
	strategies = append(strategies, strategy{"K-means (256 clusters)", kmLayout, time.Since(start)})

	// 3. Supervised partitioning with SHP over the training queries.
	start = time.Now()
	shpRes, err := bandana.PartitionSHP(numVectors, train.Queries, bandana.SHPOptions{
		BlockVectors: 32, Iterations: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	shpLayout, err := bandana.LayoutFromOrder(shpRes.Order, 32)
	if err != nil {
		log.Fatal(err)
	}
	strategies = append(strategies, strategy{"SHP (hypergraph)", shpLayout, time.Since(start)})

	// Evaluate each placement on held-out queries, with and without a
	// limited DRAM cache.
	counts := train.AccessCounts()
	cacheSize := numVectors / 50 // 2% of the table
	fmt.Printf("table: %d vectors, %d training queries, %d eval queries, cache %d vectors\n\n",
		numVectors, len(train.Queries), len(eval.Queries), cacheSize)
	fmt.Printf("%-24s %-12s %-26s %-26s\n", "placement", "build time", "unlimited-cache BW gain", "limited-cache BW gain")
	for _, s := range strategies {
		unlimited := bandana.FanoutGain(eval, s.layout)
		cmp := bandana.CompareToBaseline(eval, bandana.SimulationConfig{
			Layout:       s.layout,
			CacheVectors: cacheSize,
			Policy:       thresholdPolicy(counts, 5),
		})
		fmt.Printf("%-24s %-12s %-26s %-26s\n",
			s.name, s.took.Round(time.Millisecond),
			fmt.Sprintf("%+.0f%%", unlimited*100),
			fmt.Sprintf("%+.0f%%", cmp.EffectiveBandwidthIncrease*100))
	}
	fmt.Printf("\nSHP reduced the average query fanout from %.1f to %.1f blocks.\n",
		shpRes.InitialFanout, shpRes.FinalFanout)
}

// thresholdPolicy builds the access-count admission policy Bandana uses.
func thresholdPolicy(counts []uint32, t uint32) bandana.AdmissionPolicy {
	return bandana.NewThresholdAdmission(counts, t)
}
