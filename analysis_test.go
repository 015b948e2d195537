package bandana_test

import (
	"testing"

	"bandana"
)

// TestAnalysisToolkit exercises the exported analysis surface (partitioning,
// hit-rate curves, DRAM allocation, cache simulation) the way the
// capacity-planner and partitioning examples do.
func TestAnalysisToolkit(t *testing.T) {
	profile := bandana.Profile{
		Name:               "toolkit",
		NumVectors:         4096,
		AvgLookups:         24,
		CompulsoryMissFrac: 0.08,
		Locality:           0.9,
		CommunitySize:      64,
		ReuseSkew:          3,
		Seed:               5,
	}
	full := bandana.GenerateTrace(profile, 1200)
	train, eval := full.Split(0.6)

	// SHP partitioning through the public API.
	res, err := bandana.PartitionSHP(profile.NumVectors, train.Queries, bandana.SHPOptions{
		BlockVectors: 32, Iterations: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFanout > res.InitialFanout {
		t.Fatalf("SHP should not increase fanout (%.2f -> %.2f)", res.InitialFanout, res.FinalFanout)
	}
	shpLayout, err := bandana.LayoutFromOrder(res.Order, 32)
	if err != nil {
		t.Fatal(err)
	}
	idLayout := bandana.IdentityLayout(profile.NumVectors, 32)
	if bandana.FanoutGain(eval, shpLayout) <= bandana.FanoutGain(eval, idLayout) {
		t.Fatal("SHP layout should beat the identity layout on held-out queries")
	}

	// K-means partitioning of a community-aligned table.
	emb := bandana.GenerateTable("toolkit", bandana.TableGenerateOptions{
		NumVectors:    profile.NumVectors,
		Dim:           16,
		NumClusters:   profile.NumVectors / 64,
		ClusterSpread: 0.12,
		Seed:          2,
		Assignments:   bandana.CommunityAssignment(profile),
	}).Table
	km, err := bandana.ClusterTable(emb, bandana.KMeansOptions{K: 64, MaxIters: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	kmLayout, err := bandana.LayoutFromOrder(bandana.OrderByCluster(km.Assignments), 32)
	if err != nil {
		t.Fatal(err)
	}
	if bandana.FanoutGain(eval, kmLayout) <= 0 {
		t.Fatal("K-means layout on community-aligned embeddings should have positive fanout gain")
	}

	// Hit-rate curves and DRAM allocation.
	hrc := bandana.HitRateCurveOf(train, 1.0)
	if hrc.HitRate(profile.NumVectors) <= 0 || hrc.HitRate(profile.NumVectors) > 1 {
		t.Fatalf("implausible hit rate %g", hrc.HitRate(profile.NumVectors))
	}
	allocRes, err := bandana.AllocateDRAM([]bandana.TableDemand{
		{Name: "toolkit", HRC: hrc, MaxVectors: profile.NumVectors},
	}, bandana.AllocateOptions{TotalVectors: 256})
	if err != nil {
		t.Fatal(err)
	}
	if allocRes.Vectors[0] != 256 {
		t.Fatalf("single-table allocation should use the whole budget, got %d", allocRes.Vectors[0])
	}
	even := bandana.EvenSplitDRAM([]bandana.TableDemand{{Name: "toolkit", HRC: hrc}}, 256)
	if even.Vectors[0] != 256 {
		t.Fatalf("even split wrong: %d", even.Vectors[0])
	}

	// Cache simulation with the admission policy family.
	counts := train.AccessCounts()
	for _, policy := range []bandana.AdmissionPolicy{
		bandana.NewNoPrefetch(),
		bandana.NewAlwaysAdmit(0.5),
		bandana.NewShadowAdmission(512, 0),
		bandana.NewThresholdAdmission(counts, 3),
	} {
		simRes := bandana.SimulateCache(eval, bandana.SimulationConfig{
			Layout:       shpLayout,
			CacheVectors: 256,
			Policy:       policy,
		})
		if simRes.Lookups == 0 || simRes.BlockReads == 0 {
			t.Fatalf("policy %s produced no traffic", policy.Name())
		}
	}
	cmp := bandana.CompareToBaseline(eval, bandana.SimulationConfig{
		Layout:       shpLayout,
		CacheVectors: 256,
		Policy:       bandana.NewThresholdAdmission(counts, 3),
	})
	if cmp.Baseline.BlockReads == 0 || cmp.Policy.BlockReads == 0 {
		t.Fatal("comparison missing block read counts")
	}
}

func TestPublicConstantsAnalysis(t *testing.T) {
	if bandana.DefaultBlockVectors != 32 {
		t.Fatalf("DefaultBlockVectors = %d", bandana.DefaultBlockVectors)
	}
}
