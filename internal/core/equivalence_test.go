package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bandana/internal/fp16"
)

// TestLookupEntryPointsEquivalent drives identically configured, trained
// stores — one per public lookup entry point — through the same query
// stream, with vector updates interleaved (update log on, so some reads are
// served from the delta overlay), and asserts that every entry point serves
// bitwise-equal vectors. Entry points that issue the same cache operations
// must also agree on every serving counter: per-id Lookup against a
// LookupBatch of one, and LookupBatch against LookupBatchRaw and
// LookupBatchRawLeased (a whole batch dedupes repeated ids and groups its
// misses by block, so its counters legitimately differ from per-id serving).
func TestLookupEntryPointsEquivalent(t *testing.T) {
	const (
		numTables = 2
		vectors   = 2048
		queries   = 600
	)
	decodeAll := func(raws [][]byte) [][]float32 {
		out := make([][]float32, len(raws))
		for i, r := range raws {
			out[i] = decodeRaw(t, r)
		}
		return out
	}
	entries := []struct {
		name  string
		group int // entry points in one group must agree on every counter
		serve func(s *Store, ti int, ids []uint32) ([][]float32, error)
	}{
		{"Lookup", 0, func(s *Store, ti int, ids []uint32) ([][]float32, error) {
			out := make([][]float32, len(ids))
			for i, id := range ids {
				v, err := s.Lookup(ti, id)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}},
		{"LookupBatch of one", 0, func(s *Store, ti int, ids []uint32) ([][]float32, error) {
			out := make([][]float32, len(ids))
			for i, id := range ids {
				v, err := s.LookupBatch(ti, []uint32{id})
				if err != nil {
					return nil, err
				}
				out[i] = v[0]
			}
			return out, nil
		}},
		{"LookupBatch", 1, func(s *Store, ti int, ids []uint32) ([][]float32, error) {
			return s.LookupBatch(ti, ids)
		}},
		{"LookupBatchRaw", 1, func(s *Store, ti int, ids []uint32) ([][]float32, error) {
			raws, err := s.LookupBatchRaw(ti, ids)
			if err != nil {
				return nil, err
			}
			return decodeAll(raws), nil
		}},
		{"LookupBatchRawLeased", 1, func(s *Store, ti int, ids []uint32) ([][]float32, error) {
			raws, release, err := s.LookupBatchRawLeased(ti, ids)
			if err != nil {
				return nil, err
			}
			defer release()
			return decodeAll(raws), nil
		}},
	}

	// buildTestTables is deterministic (fixed seeds), so every store gets
	// identical tables and training traces, hence identical layouts,
	// thresholds and admission policies after Train.
	stores := make([]*Store, len(entries))
	for i := range stores {
		tables, traces := buildTestTables(t, numTables, vectors, 400)
		s, err := Open(testBackendConfig(t, Config{
			Tables:            tables,
			DRAMBudgetVectors: 256,
			Seed:              7,
			CacheShards:       4,
			UpdateLog:         UpdateLogOptions{Enabled: true},
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Train(traces, TrainOptions{}); err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}

	// A deterministic serving stream (repeated ids included) with an update
	// of one of the query's ids before every fifth query.
	rng := rand.New(rand.NewSource(99))
	updated := make(map[[2]uint32][]float32) // {table, id} -> expected value
	for qi := 0; qi < queries; qi++ {
		ti := qi % numTables
		ids := make([]uint32, 1+rng.Intn(8))
		for j := range ids {
			ids[j] = uint32(rng.Intn(vectors) % (1 + rng.Intn(vectors)))
		}
		if qi%5 == 0 {
			vec := testVec(64, uint32(qi))
			for _, s := range stores {
				if err := s.UpdateVector(ti, ids[0], vec); err != nil {
					t.Fatal(err)
				}
			}
			updated[[2]uint32{uint32(ti), ids[0]}] = decodeRaw(t, fp16.EncodeSlice(nil, vec))
		}
		var ref [][]float32
		for ei, e := range entries {
			got, err := e.serve(stores[ei], ti, ids)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if ei == 0 {
				ref = got
				continue
			}
			for i := range ids {
				if err := equalVecs(ref[i], got[i]); err != nil {
					t.Fatalf("query %d pos %d id %d: %s vs Lookup: %v", qi, i, ids[i], e.name, err)
				}
			}
		}
		for i, id := range ids {
			if want, ok := updated[[2]uint32{uint32(ti), id}]; ok {
				if err := equalVecs(want, ref[i]); err != nil {
					t.Fatalf("query %d id %d: served value is not the latest update: %v", qi, id, err)
				}
			}
		}
	}

	checkCounters := func(phase string) {
		t.Helper()
		stats := make([][]TableStats, len(stores))
		for i, s := range stores {
			stats[i] = s.Stats()
		}
		leader := make(map[int]int) // group -> its first entry point
		for ei, e := range entries {
			l, ok := leader[e.group]
			if !ok {
				leader[e.group] = ei
				continue
			}
			for ti := range stats[ei] {
				a, b := stats[l][ti], stats[ei][ti]
				if a.Lookups != b.Lookups || a.Hits != b.Hits || a.DeltaHits != b.DeltaHits ||
					a.Misses != b.Misses || a.BlockReads != b.BlockReads ||
					a.CoalescedReads != b.CoalescedReads || a.PrefetchAdds != b.PrefetchAdds ||
					a.PrefetchHits != b.PrefetchHits || a.CacheUsed != b.CacheUsed ||
					a.OverlayEntries != b.OverlayEntries {
					t.Fatalf("%s: table %d counters diverge:\n %s: %s\n %s: %s", phase, ti,
						entries[l].name, summarize(a), e.name, summarize(b))
				}
			}
		}
		for ei := range stats {
			for _, st := range stats[ei] {
				if st.DeltaHits == 0 {
					t.Fatalf("%s: %s table %s served no delta-overlay hits", phase, entries[ei].name, st.Name)
				}
				if st.CacheUsed > 0 && (st.CacheBytesResident <= 0 ||
					st.CacheArenaBytes < st.CacheBytesResident || st.CacheSlabs == 0) {
					t.Fatalf("%s: %s: arena byte accounting inconsistent: %s", phase, entries[ei].name, summarize(st))
				}
			}
		}
	}
	checkCounters("serve")

	// Live resize: shrink and regrow every store identically; the resident
	// sets must still agree.
	for _, s := range stores {
		for ti := 0; ti < numTables; ti++ {
			s.tables[ti].resizeCacheLive(32)
			s.tables[ti].resizeCacheLive(128)
		}
	}
	checkCounters("resize")
}

func equalVecs(a, b []float32) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("element %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

func decodeRaw(t *testing.T, raw []byte) []float32 {
	t.Helper()
	if raw == nil {
		t.Fatal("nil raw vector")
	}
	out := make([]float32, len(raw)/fp16.ByteSize)
	fp16.DecodeSlice(out, raw)
	return out
}

func summarize(s TableStats) string {
	return fmt.Sprintf("lookups=%d hits=%d deltaHits=%d misses=%d coalesced=%d blockReads=%d prefetchAdds=%d prefetchHits=%d cacheUsed=%d bytesResident=%d arenaBytes=%d slabs=%d",
		s.Lookups, s.Hits, s.DeltaHits, s.Misses, s.CoalescedReads, s.BlockReads, s.PrefetchAdds, s.PrefetchHits, s.CacheUsed, s.CacheBytesResident, s.CacheArenaBytes, s.CacheSlabs)
}
