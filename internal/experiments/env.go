package experiments

import (
	"fmt"
	"sync"
	"time"

	"bandana/internal/layout"
	"bandana/internal/shp"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// env holds lazily-built state shared across experiments: the synthetic
// workload calibrated to Table 1, the train/eval split, and per-table SHP
// partitionings (which are the most expensive artefacts).
type env struct {
	opts Options

	mu sync.Mutex

	workload *trace.Workload
	train    []*trace.Trace
	eval     []*trace.Trace

	shpOrders    [][]uint32
	shpResults   []*shp.Result
	shpDurations []time.Duration

	counts [][]uint32

	embTables []*table.Table
}

func newEnv(opts Options) *env {
	return &env{opts: opts}
}

// blockVectors is the number of 128 B vectors per 4 KB block.
const blockVectors = 32

// Workload builds (once) the 8-table synthetic workload, split into a
// training prefix and an evaluation suffix.
func (e *env) Workload() *trace.Workload {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workloadLocked()
}

func (e *env) workloadLocked() *trace.Workload {
	if e.workload != nil {
		return e.workload
	}
	profiles := trace.DefaultProfiles(e.opts.Scale)
	for i := range profiles {
		profiles[i].Seed += e.opts.Seed * 100
	}
	total := e.opts.TrainRequests + e.opts.EvalRequests
	e.workload = trace.GenerateWorkload(profiles, total)
	n := len(e.workload.Traces)
	e.train = make([]*trace.Trace, n)
	e.eval = make([]*trace.Trace, n)
	for i, tr := range e.workload.Traces {
		e.train[i] = tr.Prefix(e.opts.TrainRequests)
		e.eval[i] = &trace.Trace{
			TableName:  tr.TableName,
			NumVectors: tr.NumVectors,
			Queries:    tr.Queries[e.opts.TrainRequests:],
		}
	}
	e.shpOrders = make([][]uint32, n)
	e.shpResults = make([]*shp.Result, n)
	e.shpDurations = make([]time.Duration, n)
	e.counts = make([][]uint32, n)
	e.embTables = make([]*table.Table, n)
	return e.workload
}

// NumTables returns the number of tables in the workload.
func (e *env) NumTables() int { return len(e.Workload().Traces) }

// Profile returns the i-th table's profile.
func (e *env) Profile(i int) trace.Profile { return e.Workload().Profiles[i] }

// Train returns the training trace of table i.
func (e *env) Train(i int) *trace.Trace {
	e.Workload()
	return e.train[i]
}

// Eval returns the evaluation trace of table i.
func (e *env) Eval(i int) *trace.Trace {
	e.Workload()
	return e.eval[i]
}

// Counts returns the per-vector training access counts of table i.
func (e *env) Counts(i int) []uint32 {
	e.Workload()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.counts[i] == nil {
		e.counts[i] = e.train[i].AccessCounts()
	}
	return e.counts[i]
}

// shpOrder computes (once) the SHP placement order of table i trained on a
// prefix of the training trace; prefixQueries <= 0 means the full training
// trace. Only the full-training order is cached.
func (e *env) shpOrder(i, prefixQueries int) ([]uint32, *shp.Result, time.Duration, error) {
	e.Workload()
	full := prefixQueries <= 0 || prefixQueries >= len(e.train[i].Queries)
	if full {
		e.mu.Lock()
		if e.shpOrders[i] != nil {
			order, res, dur := e.shpOrders[i], e.shpResults[i], e.shpDurations[i]
			e.mu.Unlock()
			return order, res, dur, nil
		}
		e.mu.Unlock()
	}
	tr := e.train[i]
	if !full {
		tr = tr.Prefix(prefixQueries)
	}
	queries := make([][]uint32, len(tr.Queries))
	for qi, q := range tr.Queries {
		queries[qi] = q
	}
	start := time.Now()
	res, err := shp.Partition(tr.NumVectors, queries, shp.Options{
		BlockVectors: blockVectors,
		Iterations:   e.opts.SHPIterations,
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("SHP on table %d: %w", i+1, err)
	}
	dur := time.Since(start)
	if full {
		e.mu.Lock()
		e.shpOrders[i] = res.Order
		e.shpResults[i] = res
		e.shpDurations[i] = dur
		e.mu.Unlock()
	}
	return res.Order, res, dur, nil
}

// SHPLayout returns the SHP-trained layout of table i (full training trace),
// chunked into blocks of bv vectors.
func (e *env) SHPLayout(i, bv int) (*layout.Layout, error) {
	order, _, _, err := e.shpOrder(i, 0)
	if err != nil {
		return nil, err
	}
	return layout.FromOrder(order, bv)
}

// SHPDuration returns how long the full SHP training of table i took
// (training it first if needed).
func (e *env) SHPDuration(i int) (time.Duration, error) {
	_, _, dur, err := e.shpOrder(i, 0)
	return dur, err
}

// SHPResult returns the SHP result (fanout before/after) of table i.
func (e *env) SHPResult(i int) (*shp.Result, error) {
	_, res, _, err := e.shpOrder(i, 0)
	return res, err
}

// Identity returns the identity ("original table") layout of table i.
func (e *env) Identity(i, bv int) *layout.Layout {
	return layout.Identity(e.Workload().Traces[i].NumVectors, bv)
}

// embDim is the dimensionality of the synthetic embedding tables used by the
// K-means experiments. It is smaller than the production 64 to keep flat
// K-means sweeps tractable at experiment scale; the runtime/quality trends
// are unaffected.
const embDim = 16

// EmbTable generates (once) a synthetic embedding table for table i whose
// Gaussian-mixture components coincide with the workload's co-access
// communities, so that Euclidean proximity correlates with co-access the way
// the paper assumes for semantic partitioning.
func (e *env) EmbTable(i int) *table.Table {
	e.Workload()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.embTables[i] != nil {
		return e.embTables[i]
	}
	w := e.workload
	g := table.Generate(w.Profiles[i].Name, table.GenerateOptions{
		NumVectors:    w.Traces[i].NumVectors,
		Dim:           embDim,
		NumClusters:   maxCommunity(w.Communities[i]) + 1,
		ClusterSpread: 0.12,
		Seed:          e.opts.Seed + int64(i)*31,
		Assignments:   w.Communities[i],
	})
	e.embTables[i] = g.Table
	return g.Table
}

func maxCommunity(assign []int32) int {
	m := int32(0)
	for _, a := range assign {
		if a > m {
			m = a
		}
	}
	return int(m)
}

// cacheSizes returns the per-table cache sizes corresponding to the paper's
// 80 k / 120 k / 160 k / 200 k vectors on a 10 M-vector table (0.8% - 2.0%
// of the table), scaled to this run's table size.
func (e *env) cacheSizes(i int) []int {
	n := e.Workload().Traces[i].NumVectors
	fracs := []float64{0.008, 0.012, 0.016, 0.020}
	out := make([]int, len(fracs))
	for k, f := range fracs {
		s := int(f * float64(n) * 2) // x2: scaled traces reuse a smaller working set
		if s < 2*blockVectors {
			s = 2 * blockVectors
		}
		out[k] = s
	}
	return out
}

// totalCacheSizes returns the end-to-end total cache sweep corresponding to
// the paper's 1 M - 5 M vectors over ~110 M total vectors.
func (e *env) totalCacheSizes() []int {
	total := 0
	for _, tr := range e.Workload().Traces {
		total += tr.NumVectors
	}
	fracs := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	if e.opts.Quick {
		fracs = []float64{0.02, 0.04}
	}
	out := make([]int, len(fracs))
	for i, f := range fracs {
		s := int(f * float64(total))
		if s < len(e.Workload().Traces)*blockVectors {
			s = len(e.Workload().Traces) * blockVectors
		}
		out[i] = s
	}
	return out
}

// tableSubset returns the table indices a partitioning sweep runs on: a
// representative subset in Quick mode, otherwise the set used in the
// reference run.
func (e *env) kmeansTables() []int {
	if e.opts.Quick {
		return []int{1} // table 2: the highest-traffic table
	}
	return []int{0, 1, 7} // tables 1, 2 (high locality) and 8 (low locality)
}
