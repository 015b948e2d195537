package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"bandana/internal/lru"
	"bandana/internal/vcache"
)

// cacheSweepLeg is one engine's measurement at one population size.
type cacheSweepLeg struct {
	Engine  string `json:"engine"`
	Entries int    `json:"entries"`
	// HeapBytesPerEntry is the steady-state heap growth per cached vector
	// (HeapAlloc delta across build+populate, after a full GC on both sides).
	// For the lru engine this counts the per-entry heap objects (struct,
	// float slice, map/list internals); for vcache it counts the slab
	// arenas, slot metadata and probe tables.
	HeapBytesPerEntry float64 `json:"heapBytesPerEntry"`
	// HitNSOp is the single-threaded uniform-random Get latency.
	HitNSOp float64 `json:"hitNSOp"`
	// AllocsPerOp is heap allocations per Get (Mallocs delta / gets).
	AllocsPerOp float64 `json:"allocsPerOp"`
	// GCPauseP99US is the p99 stop-the-world pause over forced GC cycles
	// run while the populated cache is resident — the GC-pressure number
	// the pointer-free layout exists to shrink.
	GCPauseP99US float64 `json:"gcPauseP99US"`
	// GCCycleMS is the mean wall time of those forced GC cycles (mark cost
	// scales with the pointer graph the engine exposes to the collector).
	GCCycleMS float64 `json:"gcCycleMS"`
}

// cacheSweepPoint compares both engines at one population size.
type cacheSweepPoint struct {
	Entries int           `json:"entries"`
	LRU     cacheSweepLeg `json:"lru"`
	Arena   cacheSweepLeg `json:"vcache"`
	// HeapReduction is lru heapBytesPerEntry / vcache heapBytesPerEntry.
	HeapReduction float64 `json:"heapReduction"`
	// HitSpeedRatio is lru hitNSOp / vcache hitNSOp (>1 = vcache faster).
	HitSpeedRatio float64 `json:"hitSpeedRatio"`
}

// cacheSweepResult is the --mode cache-sweep section of the JSON artifact.
type cacheSweepResult struct {
	Dim          int               `json:"dim"`
	SlotBytes    int               `json:"slotBytes"`
	Shards       int               `json:"shards"`
	GetsPerPoint int               `json:"getsPerPoint"`
	Points       []cacheSweepPoint `json:"points"`
}

type cacheSweepOptions struct {
	Populations []int
	Seed        int64
}

const (
	cacheSweepDim   = 64 // the paper's production vector shape (fp16 x 64)
	cacheSweepGets  = 2_000_000
	cacheSweepShard = 8 // fixed so results compare across machines
	cacheSweepGCs   = 4 // forced GC cycles per pause measurement
)

// benchVec is the per-entry heap value of the store's former lru cache
// representation: a decoded float32 vector plus raw/prefetched bookkeeping.
// Only vec is populated, exactly like its float-path cache fill.
type benchVec struct {
	vec        []float32
	raw        []byte
	prefetched bool
}

// splitmixHash matches the hash the store routes cache shards with.
func splitmixHash(id uint32) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runCacheSweep builds each cache engine at each population size and
// measures heap footprint, hit latency, allocation rate and GC pauses.
// The two engines are built and torn down sequentially so each is measured
// against a quiesced heap.
func runCacheSweep(opts cacheSweepOptions) (*cacheSweepResult, error) {
	res := &cacheSweepResult{
		Dim: cacheSweepDim, SlotBytes: cacheSweepDim * 2,
		Shards: cacheSweepShard, GetsPerPoint: cacheSweepGets,
	}
	for _, n := range opts.Populations {
		if n <= 0 {
			return nil, fmt.Errorf("cache-sweep population must be positive, got %d", n)
		}
		point := cacheSweepPoint{Entries: n}
		point.LRU = measureLRULeg(n, opts.Seed)
		point.Arena = measureArenaLeg(n, opts.Seed)
		if point.Arena.HeapBytesPerEntry > 0 {
			point.HeapReduction = point.LRU.HeapBytesPerEntry / point.Arena.HeapBytesPerEntry
		}
		if point.Arena.HitNSOp > 0 {
			point.HitSpeedRatio = point.LRU.HitNSOp / point.Arena.HitNSOp
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// measureLRULeg measures the classic pointer-per-entry engine.
func measureLRULeg(n int, seed int64) cacheSweepLeg {
	leg := cacheSweepLeg{Engine: "lru", Entries: n}
	base := quiescedHeap()

	c := lru.NewSharded[uint32, *benchVec](n, cacheSweepShard, splitmixHash)
	for id := 0; id < n; id++ {
		v := &benchVec{vec: make([]float32, cacheSweepDim)}
		v.vec[0] = float32(id)
		c.Add(uint32(id), v)
	}

	leg.HeapBytesPerEntry = float64(quiescedHeap()-base) / float64(n)
	leg.GCPauseP99US, leg.GCCycleMS = measureGCPressure()

	rng := rand.New(rand.NewSource(seed))
	var sink float32
	mallocs0 := readMallocs()
	t0 := time.Now()
	for i := 0; i < cacheSweepGets; i++ {
		if v, ok := c.Get(uint32(rng.Intn(n))); ok {
			sink += v.vec[0]
		}
	}
	elapsed := time.Since(t0)
	leg.AllocsPerOp = float64(readMallocs()-mallocs0) / float64(cacheSweepGets)
	leg.HitNSOp = float64(elapsed.Nanoseconds()) / float64(cacheSweepGets)
	_ = sink
	return leg
}

// measureArenaLeg measures the pointer-free slab engine.
func measureArenaLeg(n int, seed int64) cacheSweepLeg {
	leg := cacheSweepLeg{Engine: "vcache", Entries: n}
	base := quiescedHeap()

	c := vcache.New(vcache.Options{
		Capacity: n, SlotBytes: cacheSweepDim * 2,
		Shards: cacheSweepShard, Hash: splitmixHash,
	})
	payload := make([]byte, cacheSweepDim*2)
	for id := 0; id < n; id++ {
		payload[0], payload[1] = byte(id), byte(id>>8)
		c.Add(uint32(id), payload, false)
	}

	leg.HeapBytesPerEntry = float64(quiescedHeap()-base) / float64(n)
	leg.GCPauseP99US, leg.GCCycleMS = measureGCPressure()

	rng := rand.New(rand.NewSource(seed))
	var sink byte
	mallocs0 := readMallocs()
	t0 := time.Now()
	for i := 0; i < cacheSweepGets; i++ {
		if p, _, ok := c.Get(uint32(rng.Intn(n))); ok {
			sink += p[0]
		}
	}
	elapsed := time.Since(t0)
	leg.AllocsPerOp = float64(readMallocs()-mallocs0) / float64(cacheSweepGets)
	leg.HitNSOp = float64(elapsed.Nanoseconds()) / float64(cacheSweepGets)
	_ = sink
	return leg
}

// quiescedHeap forces a full GC and returns live heap bytes.
func quiescedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measureGCPressure runs cacheSweepGCs forced collections against whatever
// is currently live and reports the p99 STW pause (us) plus the mean cycle
// wall time (ms).
func measureGCPressure() (pauseP99US, cycleMS float64) {
	before := readGCPauses()
	t0 := time.Now()
	for i := 0; i < cacheSweepGCs; i++ {
		runtime.GC()
	}
	cycleMS = float64(time.Since(t0).Milliseconds()) / cacheSweepGCs
	return gcPauseP99US(before, readGCPauses()), cycleMS
}

// readGCPauses snapshots the cumulative /gc/pauses:seconds histogram.
func readGCPauses() *rtmetrics.Float64Histogram {
	sample := []rtmetrics.Sample{{Name: "/gc/pauses:seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return nil
	}
	h := sample[0].Value.Float64Histogram()
	// Copy: the runtime may reuse the returned buckets on the next Read.
	return &rtmetrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// gcPauseP99US computes the p99 pause in microseconds from the histogram
// delta between two cumulative snapshots. Returns 0 when no pause occurred
// in the window (or the metric is unsupported).
func gcPauseP99US(before, after *rtmetrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(after.Counts) != len(before.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total)*0.99 + 0.5)
	if target > total {
		target = total
	}
	var cum uint64
	for i, d := range delta {
		cum += d
		if cum >= target && d > 0 {
			// Bucket i spans (Buckets[i], Buckets[i+1]]; report the upper
			// bound. The first/last buckets can be infinite — fall back to
			// the finite edge.
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 0) || math.IsNaN(hi) {
				hi = after.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}
