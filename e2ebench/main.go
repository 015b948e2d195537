// Command e2ebench is the benchmark of record for the Bandana serving path.
//
// It builds nothing itself: run.sh builds bandana-server from the source
// tree and this program. For one workload it starts the server on a fresh
// data dir at the paper's operating point (3 synthetic tables, 200k
// vectors of 64 fp16 values, a trained SHP layout, the file backend with
// O_DIRECT), replays held-out synthetic requests at an open-loop Poisson
// rate over bwp, checks every returned vector bit-exactly, and reports
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1). The
// last line of standard output is one JSON object; the lines before it are
// the full human-readable report. See README.md.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload paper-5pct --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --workload all
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bandana/internal/synth"
	"bandana/internal/table"
	"bandana/internal/trace"
	"bandana/internal/wire"
)

const (
	tableScale    = 0.005 // 3 tables, 200k vectors
	numTables     = 3
	trainRequests = 8000 // the server trains on this prefix of the stream
	heldRequests  = 6000 // held-out suffix the generator replays (wrapping)
	numSetups     = 3    // server launches per run; setup_s is their median
	vecDim        = 64
	blockSize     = 4096
	opTimeout     = 2 * time.Second
	warmFor       = 2 * time.Second
	rungFor       = 1500 * time.Millisecond
)

// workload is one traffic mix.
type workload struct {
	name    string
	why     string
	dram    int       // --dram; 0 keeps the server's default 5% budget
	rate    float64   // nominal request rate, req/s
	updRate float64   // update rate, updates/s
	limitUS float64   // p99 latency limit for the rate ladder
	ladder  []float64 // request rates tried for max_rate_rps, ascending
	warmAll bool      // look up every id before measuring
	// updWarm updates are sent before measuring: enough to push the delta
	// log past its first compaction (16,384 retained + 4,096 records).
	updWarm int
}

var workloads = []workload{
	{
		name: "paper-5pct",
		why:  "read-only at the paper's point: 5% of vectors in DRAM, trained layout, O_DIRECT misses",
		rate: 150, limitUS: 50_000,
		ladder: []float64{150, 200, 300, 400, 500, 600},
	},
	{
		name: "dram-resident",
		why:  "every vector cached and warmed: almost no block reads, so the transport and hit path dominate",
		dram: 200_000, rate: 500, limitUS: 5_000,
		ladder:  []float64{500, 1000, 1500, 2000, 2500},
		warmAll: true,
	},
	{
		name: "update-mix",
		why:  "paper-5pct reads plus single-vector updates to recently read ids, with delta-log compactions",
		rate: 150, updRate: 2000, limitUS: 50_000,
		ladder:  []float64{150, 200, 300, 400, 500, 600},
		updWarm: 16384 + 4096 + 1024,
	},
}

// exit codes
const (
	exitError    = 1 // the benchmark could not run
	exitMismatch = 2 // a returned vector was wrong
	exitInvalid  = 3 // a sanity assertion or the generator lag bound failed
)

func main() {
	var (
		wname   = flag.String("workload", "paper-5pct", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed for the tables, the request stream and the arrivals")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		bin     = flag.String("server", ".bench_build/bin/bandana-server", "bandana-server binary")
		out     = flag.String("out", ".bench_build/runs", "artifact directory (logs, data dirs, profiles, spans)")
	)
	flag.Parse()
	var sel []workload
	for _, w := range workloads {
		if *wname == "all" || *wname == w.name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		fail(exitError, fmt.Errorf("unknown workload %q", *wname))
	}
	if *seconds < 1 {
		fail(exitError, errors.New("--seconds must be at least 1"))
	}
	env := stampEnv(*bin)
	final := jsonLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range sel {
		dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced))
		r, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *bin, dir, env)
		if err != nil {
			if r != nil {
				r.print(os.Stdout)
			}
			code := exitError
			switch {
			case errors.Is(err, errMismatch):
				code = exitMismatch
			case errors.Is(err, errInvalid):
				code = exitInvalid
			}
			fail(code, fmt.Errorf("%s: %w", w.name, err))
		}
		r.print(os.Stdout)
		final.Attempted += r.attempted
		final.Failed += r.failed
		prefix := ""
		if len(sel) > 1 {
			prefix = w.name + "."
		}
		for _, m := range r.metrics {
			if m.layer == (*traced == 1) && m.declared {
				final.Metrics[prefix+m.name] = jsonMetric{Value: m.value, Unit: m.unit}
			}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fail(exitError, err)
	}
	fmt.Println(string(b))
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(code)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// stampEnv describes the machine and build every result was taken on.
func stampEnv(bin string) []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	ver := "unknown"
	if b, err := exec.Command(bin, "--version").Output(); err == nil {
		ver = strings.TrimSpace(string(b))
	}
	return []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("loadgen_gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("cpu=%q", cpu),
		fmt.Sprintf("go=%s", runtime.Version()),
		fmt.Sprintf("build=%q", ver),
	}
}

// stream is the synthetic data a run serves and replays.
type stream struct {
	tables []*table.Table
	held   []request
}

// buildStream generates the tables and the request stream. The server
// generates the same tables and trains on the first trainRequests
// requests; the generator replays the rest.
func buildStream(seed int64) stream {
	tables, wl := synth.BuildWorkload(synth.Options{
		Scale: tableScale, NumTables: numTables, Seed: seed,
		Requests: trainRequests + heldRequests,
	})
	return stream{tables: tables, held: heldOut(wl, trainRequests)}
}

// heldOut returns requests from index from on, one id list per table.
func heldOut(wl *trace.Workload, from int) []request {
	n := len(wl.Traces[0].Queries)
	out := make([]request, 0, n-from)
	for i := from; i < n; i++ {
		q := make(request, len(wl.Traces))
		for t, tr := range wl.Traces {
			q[t] = tr.Queries[i]
		}
		out = append(out, q)
	}
	return out
}

func newLoadgen(s stream, clients []*wire.Client, seed int64, updates bool) *loadgen {
	g := &loadgen{
		clients: clients,
		reqs:    s.held,
		timeout: opTimeout,
		rng:     rand.New(rand.NewSource(seed)),
		updRng:  rand.New(rand.NewSource(seed + 1)),
		dim:     vecDim,
		expect: func(t int, id uint32) []byte {
			raw, _ := s.tables[t].Raw(id) // ids come from the table's own trace
			return raw
		},
	}
	for _, tb := range s.tables {
		g.names = append(g.names, tb.Name)
	}
	if updates {
		g.oracle = newOracle()
		g.recent = make([]uint64, 4096)
	}
	return g
}
