package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bandana/internal/nvm"
	"bandana/internal/wire"
)

// errInvalid marks a run whose workload did not behave as the workload
// claims (a failed sanity assertion) or whose generator ran late: such a
// run is void, not slow.
var errInvalid = errors.New("invalid run")

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	layer bool // per-layer (reported with --trace 1) rather than end-to-end
	// declared marks the metrics BENCHMARK.json lists; the others appear
	// in the human-readable report only.
	declared bool
}

// result is everything one workload run reports.
type result struct {
	workload          string
	env               []string
	stealKept         float64 // host steal share over the seconds latency uses
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, v float64, unit string, layer, declared bool) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, layer: layer, declared: declared})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== workload %s\n", r.workload)
	fmt.Fprintf(w, "env: %s\n", strings.Join(r.env, " "))
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	printed := map[string]bool{}
	for _, layer := range []bool{false, true} {
		if layer {
			fmt.Fprintln(w, "-- per-layer")
		} else {
			fmt.Fprintln(w, "-- end-to-end")
		}
		for _, m := range r.metrics {
			if m.layer == layer && !printed[m.name] {
				fmt.Fprintf(w, "%-34s %14.4f %s\n", m.name, m.value, m.unit)
				printed[m.name] = true
			}
		}
	}
}

// window is one measured phase with the server-side snapshots around it.
type window struct {
	res           *phaseResult
	before, after *stats
	pb, pa        procSample
	bytes         int64  // both connections, both directions
	polls         []poll // per-second stats polls (traced)
	cpu           map[string]float64
	// host holds /proc/stat steal and total jiffies sampled each second
	// of the window: steal is CPU time the hypervisor gave to other
	// machines while this one had work.
	host [][2]float64
}

// stealQuiet is the host steal share above which a second of a window is
// noisy: on a shared host a stolen CPU stalls every request in flight, which
// measures the neighbours' load, not this program.
const stealQuiet = 0.01

// stealShare returns the share of the machine's CPU time the host stole in
// second k of the window.
func (win *window) stealShare(k int) float64 {
	return ratio(win.host[k+1][0]-win.host[k][0], win.host[k+1][1]-win.host[k][1])
}

// quietFilter returns a filter accepting the offsets that fall in the
// window's quiet seconds, and the steal share over the whole window and over
// the seconds kept. A second is quiet when the host stole at most stealQuiet
// of its CPU time; when fewer than half the seconds are quiet, the half with
// the least steal is kept instead.
func (win *window) quietFilter() (keep func(at int64) bool, all, kept float64) {
	n := len(win.host) - 1
	if n < 1 {
		return nil, 0, 0
	}
	share := make([]float64, n)
	order := make([]int, n)
	for k := 0; k < n; k++ {
		share[k] = win.stealShare(k)
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return share[order[i]] < share[order[j]] })
	quiet := make([]bool, n)
	var sum float64
	var nq int
	for i, k := range order {
		if i >= (n+1)/2 && share[k] > stealQuiet {
			break
		}
		quiet[k] = true
		sum += share[k]
		nq++
	}
	all = ratio(win.host[n][0]-win.host[0][0], win.host[n][1]-win.host[0][1])
	keep = func(at int64) bool {
		sec := int(at / 1e9)
		return sec < n && quiet[sec]
	}
	return keep, all, sum / float64(nq)
}

type poll struct {
	at          int64 // ns from the phase start
	compactions float64
}

// runWorkload performs one run of w and returns its metrics.
func runWorkload(w workload, seed int64, winDur time.Duration, traced bool, bin, dir string, env []string) (*result, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &result{workload: w.name, env: env}
	r.note("workload: %s", w.why)
	genStart := time.Now()
	s := buildStream(seed)
	r.note("generator built %d tables and %d held-out requests in %.2fs", len(s.tables), len(s.held), time.Since(genStart).Seconds())

	// Set up numSetups times on fresh data dirs; the last server serves.
	var setups, trains []float64
	var p *serverProc
	defer func() {
		p.stop()
		// The data dir is 25 MB of throwaway state; logs and profiles stay.
		os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", numSetups-1), "data"))
	}()
	for i := 0; i < numSetups; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		proc, d, err := startServer(bin, sdir, seed, w.dram, traced)
		if err != nil {
			// Once more, on new ports: a port freeAddr found free can be
			// taken before the server binds it.
			if proc, d, err = startServer(bin, sdir, seed, w.dram, traced); err != nil {
				return nil, err
			}
		}
		setups = append(setups, d.Seconds())
		gmp, train, err := serverLog(proc.logPath)
		if err != nil {
			proc.stop()
			return nil, err
		}
		trains = append(trains, train.Seconds())
		if i < numSetups-1 {
			proc.stop()
			if err := os.RemoveAll(filepath.Join(sdir, "data")); err != nil {
				return nil, err
			}
			continue
		}
		p = proc
		r.env = append(r.env, fmt.Sprintf("server_gomaxprocs=%d", gmp))
	}

	r.note("set-ups done %.1fs into the run", time.Since(genStart).Seconds())
	c0, cc0, err := dialCounted(p.wireAddr)
	if err != nil {
		return nil, err
	}
	defer c0.Close()
	c1, cc1, err := dialCounted(p.wireAddr)
	if err != nil {
		return nil, err
	}
	defer c1.Close()
	g := newLoadgen(s, []*wire.Client{c0, c1}, seed, w.updRate > 0)
	conns := []*countingConn{cc0, cc1}

	// Warm up: caches fill and lazy set-up finishes before timing.
	if w.warmAll {
		if err := g.warmAll(s); err != nil {
			return nil, err
		}
	}
	g.run(w.rate, 0, warmFor, false)
	if w.updWarm > 0 {
		g.warmUpdates(w.updWarm, 32)
	}
	if err := g.err(); err != nil {
		return nil, err
	}

	r.note("warm-up done %.1fs into the run", time.Since(genStart).Seconds())
	var untraced *window
	if traced {
		// The same window without tracing first: the difference is the
		// tracing overhead.
		if untraced, err = measure(p, g, conns, w, winDur, false, dir); err != nil {
			return nil, err
		}
	}
	win, err := measure(p, g, conns, w, winDur, traced, dir)
	if err != nil {
		return nil, err
	}
	if err := g.err(); err != nil {
		return nil, err
	}
	// The rate ladder rides with the traced run: its rungs are too short
	// to gate on, and the untraced runs spend their time on the window.
	var maxRate float64
	var rungs []string
	if traced {
		maxRate, rungs = ladder(g, w)
		if err := g.err(); err != nil {
			return nil, err
		}
	}
	if st, err := p.stats(); err == nil {
		r.env = append(r.env, fmt.Sprintf("backend=%s", st.Device.Backend), fmt.Sprintf("directIO=%v", st.Device.DirectIO))
	}

	report(r, w, win, untraced, setups, trains, maxRate, traced)
	for _, l := range rungs {
		r.note("ladder %s", l)
	}
	if err := sanity(r, w, win); err != nil {
		return r, err // the report shows what the assertion saw
	}
	if traced {
		if err := writeSpans(filepath.Join(dir, "spans.csv"), win.res, g.names); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// measure runs one window at the workload's nominal rates and snapshots the
// server around it. A traced window also profiles the server's CPU, polls
// its stats every second, and records per-frame client spans.
func measure(p *serverProc, g *loadgen, conns []*countingConn, w workload, d time.Duration, traced bool, dir string) (*window, error) {
	win := &window{}
	var err error
	connBytes := func() int64 {
		var n int64
		for _, c := range conns {
			n += c.rx.Load() + c.tx.Load()
		}
		return n
	}
	if win.before, err = p.stats(); err != nil {
		return nil, err
	}
	if win.pb, err = readProc(p.pid()); err != nil {
		return nil, err
	}
	b0 := connBytes()

	var bg sync.WaitGroup
	var profErr error
	stop := make(chan struct{})
	profPath := filepath.Join(dir, "cpu.pprof")
	if traced {
		bg.Add(1)
		go func() {
			defer bg.Done()
			profErr = p.fetchProfile(int(d.Seconds()), profPath)
		}()
	}
	// Once a second: host steal, and in traced windows the server's
	// compaction counter.
	start := time.Now()
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			if st, tot, err := hostCPU(); err == nil {
				win.host = append(win.host, [2]float64{st, tot})
			}
			if traced {
				if st, err := p.stats(); err == nil {
					win.polls = append(win.polls, poll{at: int64(time.Since(start)), compactions: st.UpdateLog.Compactions})
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	win.res = g.run(w.rate, w.updRate, d, traced)
	close(stop)
	bg.Wait()
	if profErr != nil {
		return nil, profErr
	}
	if win.after, err = p.stats(); err != nil {
		return nil, err
	}
	if win.pa, err = readProc(p.pid()); err != nil {
		return nil, err
	}
	win.bytes = connBytes() - b0
	if st, tot, err := hostCPU(); err == nil {
		win.host = append(win.host, [2]float64{st, tot})
	}
	if traced {
		if win.cpu, err = cpuShares(profPath); err != nil {
			return nil, err
		}
	}
	return win, nil
}

// ladder offers the workload's fixed rates in ascending order for rungFor
// each and returns the highest rate whose rung met the p99 limit with no
// failures and no growing backlog, stopping at the first rung that did not.
func ladder(g *loadgen, w workload) (float64, []string) {
	var best float64
	var lines []string
	for _, rate := range w.ladder {
		res := g.run(rate, w.updRate, rungFor, false)
		lat := summarize(reqLatencies(res, nil), 0.99)
		fr, fu := countFailed(res)
		failed := fr + fu
		// A rung's backlog is growing when more requests are outstanding at
		// its end than the rate sustains within the latency limit.
		maxBacklog := max(1, int(rate*w.limitUS/1e6))
		ok := failed == 0 && res.backlog <= maxBacklog && lat.Tail <= w.limitUS
		lines = append(lines, fmt.Sprintf("rate=%.0f n=%d p%.4g=%.0fus backlog=%d/%d failed=%d ok=%v",
			rate, lat.N, lat.TailQ*100, lat.Tail, res.backlog, maxBacklog, failed, ok))
		if !ok {
			break
		}
		best = rate
	}
	return best, lines
}

// reqLatencies returns the latencies of the requests due at an offset keep
// accepts (every request when keep is nil), in microseconds.
func reqLatencies(res *phaseResult, keep func(at int64) bool) []float64 {
	out := make([]float64, 0, len(res.reqs))
	for _, q := range res.reqs {
		if keep != nil && !keep(q.intended) {
			continue
		}
		if q.failed {
			out = append(out, float64(opTimeout)/1e3) // a failure misses every limit
			continue
		}
		out = append(out, float64(q.done-q.intended)/1e3)
	}
	return out
}

func updLatencies(res *phaseResult, keep func(at int64) bool) []float64 {
	out := make([]float64, 0, len(res.upds))
	for _, u := range res.upds {
		if keep != nil && !keep(u.intended) {
			continue
		}
		if u.failed {
			out = append(out, float64(opTimeout)/1e3)
			continue
		}
		out = append(out, float64(u.done-u.intended)/1e3)
	}
	return out
}

// countFailed returns how many requests and updates failed.
func countFailed(res *phaseResult) (reqs, upds int) {
	for _, q := range res.reqs {
		if q.failed {
			reqs++
		}
	}
	for _, u := range res.upds {
		if u.failed {
			upds++
		}
	}
	return reqs, upds
}

// report computes every metric of the run into r.
func report(r *result, w workload, win, untraced *window, setups, trains []float64, maxRate float64, traced bool) {
	res, b, a := win.res, win.before, win.after
	nreq, nupd := float64(len(res.reqs)), float64(len(res.upds))
	r.attempted = len(res.reqs) + len(res.upds)
	failedReqs, failedUpds := countFailed(res)
	r.failed = failedReqs + failedUpds
	// Latency is taken over the window's quiet seconds (quietFilter).
	keep, stealAll, stealKept := win.quietFilter()
	r.stealKept = stealKept
	req := summarize(reqLatencies(res, keep), 0.99)
	upd := summarize(updLatencies(res, keep), 0.99)
	r.note("window %.0fs: %d requests at %.0f/s, %d updates at %.0f/s; host steal %.3f over the window, %.3f over the quiet seconds kept",
		res.dur.Seconds(), len(res.reqs), w.rate, len(res.upds), w.updRate, stealAll, stealKept)
	r.note("latency over quiet seconds: %d requests (tail p%.4g), %d updates (tail p%.4g)", req.N, req.TailQ*100, upd.N, upd.TailQ*100)
	r.note("per-second p50 (us): %s", perSecondP50(res))
	// Window deltas of server counters.
	delta := func(f func(s *stats) float64) float64 { return f(a) - f(b) }
	tdelta := func(f func(t *tableStats) float64) float64 { return a.tableSum(f) - b.tableSum(f) }
	lookups := tdelta(func(t *tableStats) float64 { return t.Lookups })
	hits := tdelta(func(t *tableStats) float64 { return t.Hits })
	misses := tdelta(func(t *tableStats) float64 { return t.Misses })
	prefAdds := tdelta(func(t *tableStats) float64 { return t.PrefetchAdds })
	prefHits := tdelta(func(t *tableStats) float64 { return t.PrefetchHits })
	deltaHits := tdelta(func(t *tableStats) float64 { return t.DeltaHits })
	blockReads := delta(func(s *stats) float64 { return s.Device.BlocksRead })
	acked := nupd - float64(failedUpds)
	vecBytes := float64(2 * vecDim)
	writeBytes := win.pa.WriteBytes - win.pb.WriteBytes

	// End-to-end.
	e2e := func(name string, v float64, unit string, declared bool) { r.add(name, v, unit, false, declared) }
	e2e("setup_s", median(setups), "s", true)
	e2e("req_p50_us", req.P50, "us", false)
	e2e("req_p99_us", req.Tail, "us", false)
	e2e("max_rate_rps", maxRate, "1/s", false)
	e2e("hit_ratio", ratio(hits, lookups), "ratio", true)
	e2e("server_rss_mb", win.pa.RSSMB, "MB", true)
	e2e("server_cpu_ms_per_req", ratio((win.pa.CPUSec-win.pb.CPUSec)*1e3, nreq), "ms", false)
	e2e("upd_p50_us", upd.P50, "us", false)
	e2e("upd_p99_us", upd.Tail, "us", false)
	e2e("nvm_reads_per_lookup", ratio(blockReads, lookups), "count", false)
	e2e("effective_bw", ratio((misses+prefHits)*vecBytes, blockReads*blockSize), "ratio", false)
	e2e("write_amp", ratio(writeBytes, acked*vecBytes), "ratio", false)
	e2e("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", false)

	// Per-layer.
	layer := func(name string, v float64, unit string) { r.add(name, v, unit, true, true) }
	for _, m := range r.metrics {
		if !m.declared && !m.layer {
			layer(m.name, m.value, m.unit) // workload-specific end-to-end figures
		}
	}
	opLookup, nops := windowMean(b.Wire.Ops["lookup"].Latency, a.Wire.Ops["lookup"].Latency)
	opUpdate, _ := windowMean(b.Wire.Ops["update"].Latency, a.Wire.Ops["update"].Latency)
	// Frame spans exist in traced windows only.
	rtt := summarize(frameRTTs(res), 0.99)
	var wireSelf float64
	if rtt.N > 0 {
		wireSelf = rtt.Mean - opLookup
	}
	layer("wire.frame_rtt_p50_us", rtt.P50, "us")
	layer("wire.self_us", wireSelf, "us")
	layer("wire.bytes_per_req", ratio(float64(win.bytes), nreq), "B")
	layer("server.op_lookup_us", opLookup, "us")
	layer("server.op_update_us", opUpdate, "us")

	// Stage histograms: per-observation window means, and per-op totals
	// for the latency breakdown.
	stage := func(h func(t *tableStats) histSnap) (mean, perOp float64) {
		var sum, n float64
		for i := range a.Tables {
			m, c := windowMean(h(&b.Tables[i]), h(&a.Tables[i]))
			sum += m * c
			n += c
		}
		return ratio(sum, n), ratio(sum, nops)
	}
	probe, _ := stage(func(t *tableStats) histSnap { return t.ProbeLatency })
	probeOp := probe * ratio(lookups, nops) // the probe stage is sampled: scale by probes per op
	decode, decodeOp := stage(func(t *tableStats) histSnap { return t.DecodeLatency })
	qwait, qwaitOp := stage(func(t *tableStats) histSnap { return t.QueueWaitLatency })
	service, serviceOp := stage(func(t *tableStats) histSnap { return t.Latency })
	opSelf := opLookup - probeOp - decodeOp - qwaitOp - serviceOp
	layer("core.probe_us", probe, "us")
	layer("core.decode_us", decode, "us")
	layer("core.queue_wait_us", qwait, "us")
	layer("core.miss_self_us", opSelf, "us")
	layer("core.prefetch_adds_per_read", ratio(prefAdds, blockReads), "count")
	layer("core.prefetch_useful_frac", ratio(prefHits, prefAdds), "ratio")
	layer("core.delta_hit_frac", ratio(deltaHits, lookups), "ratio")
	layer("core.compactions", delta(func(s *stats) float64 { return s.UpdateLog.Compactions }), "count")
	layer("core.log_bytes_per_update", ratio(delta(func(s *stats) float64 { return s.UpdateLog.BytesAppended }), acked), "B")
	layer("core.req_p99_in_compaction_us", inCompactionTail(res, win.polls), "us")

	var arena, used, utilBytes float64
	for _, t := range a.Tables {
		arena += t.CacheArenaBytes
		used += t.CacheUsed
		utilBytes += t.CacheArenaUtilization * t.CacheArenaBytes
	}
	layer("vcache.bytes_per_vector", ratio(arena, used), "B")
	layer("vcache.arena_util", ratio(utilBytes, arena), "ratio")

	devReads := delta(func(s *stats) float64 { return s.IOSched.DeviceReads })
	coalesced := delta(func(s *stats) float64 { return s.IOSched.Coalesced })
	layer("iosched.avg_batch", ratio(devReads, delta(func(s *stats) float64 { return s.IOSched.Batches })), "count")
	layer("iosched.queue_wait_p99_us", a.IOSched.QueueWaitUS.P99, "us")
	layer("iosched.coalesced_frac", ratio(coalesced, devReads+coalesced), "ratio")

	readsPerReq := ratio(blockReads, nreq)
	layer("nvm.read_bytes_per_lookup", ratio(win.pa.ReadBytes-win.pb.ReadBytes, lookups), "B")
	layer("nvm.read_syscalls_per_req", ratio(delta(func(s *stats) float64 { return s.Device.ReadBatches }), nreq), "count")
	layer("nvm.service_us", service, "us")
	layer("nvm.write_bytes_per_update", ratio(writeBytes, acked), "B")
	model := nvm.NewPerformanceModel(nvm.DefaultCalibration())
	layer("nvm.model_ceiling_rps", ratio(model.MaxBandwidthGBs()*1e9, readsPerReq*blockSize), "1/s")
	layer("proc.syscalls_per_req", ratio(win.pa.SysR-win.pb.SysR+win.pa.SysW-win.pb.SysW, nreq), "count")

	layer("runtime.heap_mb_start", b.Runtime.HeapBytes/(1<<20), "MB")
	layer("runtime.heap_mb_end", a.Runtime.HeapBytes/(1<<20), "MB")
	layer("runtime.gc_pause_p99_us", a.Runtime.GCPauseP99US, "us")
	for _, l := range cpuLayers {
		layer("cpu."+l, win.cpu[l], "ratio")
	}
	lag := summarize(sendLags(res, keep), 0.99)
	layer("loadgen.send_lag_p99_us", lag.Tail, "us")
	layer("loadgen.cpu_s", res.cpuEnd-res.cpuStart, "s")
	layer("setup.train_s", median(trains), "s")

	// The traced run's latency breakdown: each term is a mean over the
	// window's completed requests, and the residual is whatever the named
	// terms do not account for.
	reqMean, lagMean, fanin := requestMeans(res)
	named := []struct {
		name string
		v    float64
	}{
		{"bd.send_lag_us", lagMean},
		{"bd.fanin_wait_us", fanin},
		{"bd.wire_self_us", wireSelf},
		{"bd.core_probe_us", probeOp},
		{"bd.core_queue_wait_us", qwaitOp},
		{"bd.nvm_service_us", serviceOp},
		{"bd.core_decode_us", decodeOp},
		{"bd.server_op_self_us", opSelf},
	}
	sum := 0.0
	for _, t := range named {
		if !traced {
			t.v = 0
		}
		layer(t.name, t.v, "us")
		sum += t.v
	}
	if traced {
		layer("bd.residual_us", reqMean-sum, "us")
		layer("bd.req_mean_us", reqMean, "us")
		ukeep, _, _ := untraced.quietFilter()
		layer("trace.overhead_p50_us", req.P50-summarize(reqLatencies(untraced.res, ukeep), 0.99).P50, "us")
	} else {
		layer("bd.residual_us", 0, "us")
		layer("bd.req_mean_us", 0, "us")
		layer("trace.overhead_p50_us", 0, "us")
	}
	ceiling := r.get("nvm.model_ceiling_rps")
	if ceiling > 0 {
		r.note("model ceiling (Optane model, not this disk): %.0f req/s at %.2f block reads per request", ceiling, readsPerReq)
	}
}

// perSecondP50 lists the median latency of the requests due in each second
// of the window.
func perSecondP50(res *phaseResult) string {
	buckets := map[int][]float64{}
	for _, q := range res.reqs {
		sec := int(q.intended / 1e9)
		buckets[sec] = append(buckets[sec], float64(q.done-q.intended)/1e3)
	}
	var parts []string
	for sec := 0; sec < len(buckets); sec++ {
		parts = append(parts, fmt.Sprintf("%.0f", summarize(buckets[sec], 0.5).P50))
	}
	return strings.Join(parts, " ")
}

func sendLags(res *phaseResult, keep func(at int64) bool) []float64 {
	out := make([]float64, 0, len(res.reqs))
	for _, q := range res.reqs {
		if keep != nil && !keep(q.intended) {
			continue
		}
		out = append(out, float64(q.sent-q.intended)/1e3)
	}
	return out
}

// frameRTTs returns every traced frame's round trip in microseconds.
func frameRTTs(res *phaseResult) []float64 {
	var out []float64
	for _, q := range res.reqs {
		if q.failed || q.frameStart == nil {
			continue
		}
		for t := range q.frameStart {
			out = append(out, float64(q.frameEnd[t]-q.frameStart[t])/1e3)
		}
	}
	return out
}

// requestMeans returns, over completed traced requests, the mean latency,
// the mean send lag, and the mean fan-in wait: the time from dispatch to
// the last frame's return beyond the request's mean frame round trip.
func requestMeans(res *phaseResult) (lat, lag, fanin float64) {
	var n float64
	for _, q := range res.reqs {
		if q.failed || q.frameStart == nil {
			continue
		}
		var rtt float64
		for t := range q.frameStart {
			rtt += float64(q.frameEnd[t] - q.frameStart[t])
		}
		rtt /= float64(len(q.frameStart))
		lat += float64(q.done - q.intended)
		lag += float64(q.sent - q.intended)
		fanin += float64(q.done-q.sent) - rtt
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return lat / n / 1e3, lag / n / 1e3, fanin / n / 1e3
}

// inCompactionTail returns the tail latency of requests that overlapped a
// second in which the server's compaction counter advanced.
func inCompactionTail(res *phaseResult, polls []poll) float64 {
	var lat []float64
	for _, q := range res.reqs {
		for k := 1; k < len(polls); k++ {
			if polls[k].compactions > polls[k-1].compactions && q.intended < polls[k].at && q.done > polls[k-1].at {
				lat = append(lat, float64(q.done-q.intended)/1e3)
				break
			}
		}
	}
	return summarize(lat, 0.99).Tail
}

// sanity checks that the run exercised what its workload claims.
func sanity(r *result, w workload, win *window) error {
	// A generator that alone runs later than the latency limit cannot
	// measure against it. Lag while the host steals CPU is the host's, and
	// the report already shows that steal.
	lag := r.get("loadgen.send_lag_p99_us")
	if lag > w.limitUS && r.stealKept <= stealQuiet {
		return fmt.Errorf("%w: generator send lag p99 %.0fus exceeds the %.0fus limit on a quiet host", errInvalid, lag, w.limitUS)
	}
	switch w.name {
	case "dram-resident":
		// Zero block reads is out of reach: the cache splits its capacity
		// exactly across hash shards, so a budget equal to a table cannot
		// hold all of it (README.md, known defects). The bound still voids
		// a run whose tables are not DRAM-resident.
		if v := r.get("nvm_reads_per_lookup"); v > 0.001 || r.get("hit_ratio") < 0.99 {
			return fmt.Errorf("%w: dram-resident read %.5f blocks per lookup at hit ratio %.4f", errInvalid, v, r.get("hit_ratio"))
		}
	case "paper-5pct":
		if v := r.get("nvm_reads_per_lookup"); v < 0.2 {
			return fmt.Errorf("%w: paper-5pct read %.3f blocks per lookup (< 0.2)", errInvalid, v)
		}
	case "update-mix":
		if v := r.get("core.compactions"); v < 3 {
			return fmt.Errorf("%w: update-mix window saw %.0f compactions (< 3)", errInvalid, v)
		}
	}
	return nil
}

// writeSpans saves the traced window's per-frame client spans.
func writeSpans(path string, res *phaseResult, names []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "request,span,start_us,end_us")
	for i, q := range res.reqs {
		fmt.Fprintf(f, "%d,request,%.1f,%.1f\n", i, float64(q.intended)/1e3, float64(q.done)/1e3)
		for t := range q.frameStart {
			fmt.Fprintf(f, "%d,%s,%.1f,%.1f\n", i, names[t], float64(q.frameStart[t])/1e3, float64(q.frameEnd[t])/1e3)
		}
	}
	return f.Close()
}

// warmAll looks up every id of every table once, checking each vector, so
// a cache that holds everything holds everything before timing starts.
func (g *loadgen) warmAll(s stream) error {
	const batch = 4096
	for t, tb := range s.tables {
		n := tb.NumVectors()
		for lo := 0; lo < n; lo += batch {
			ids := make([]uint32, 0, batch)
			for id := lo; id < min(n, lo+batch); id++ {
				ids = append(ids, uint32(id))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, vecs, err := g.clients[0].LookupBatchRaw(ctx, g.names[t], ids)
			cancel()
			if err != nil {
				return fmt.Errorf("warm %s: %w", g.names[t], err)
			}
			for j, id := range ids {
				if string(vecs[j]) != string(g.expect(t, id)) {
					return fmt.Errorf("%w: warm %s id %d", errMismatch, g.names[t], id)
				}
			}
		}
	}
	return nil
}

// warmUpdates sends n updates from conc closed-loop workers.
func (g *loadgen) warmUpdates(n, conc int) {
	var wg sync.WaitGroup
	work := make(chan struct{})
	start := time.Now()
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t, id, v := g.pickUpdate()
				g.update(start, &updRec{}, t, id, v)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
}
