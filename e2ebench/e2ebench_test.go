package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/synth"
	"bandana/internal/wire"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
	}{
		{n: 100_000, want: 0.99, q: 0.99}, // plenty beyond p99
		{n: 1000, want: 0.99, q: 0.99},    // exactly 10 beyond p99
		{n: 500, want: 0.99, q: 0.98},     // 10 beyond p98
		{n: 100, want: 0.99, q: 0.90},
		{n: 10, want: 0.99, q: 0},
		{n: 9, want: 0.99, q: 0},
	} {
		if got := tailQuantile(c.n, c.want); got != c.q {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.want, got, c.q)
		}
	}
	// Over 500 samples 1..500 the reported tail is p98 = 490, with exactly
	// ten samples beyond it.
	s := make([]float64, 500)
	for i := range s {
		s[i] = float64(500 - i)
	}
	d := summarize(s, 0.99)
	if d.Tail != 490 || d.TailQ != 0.98 || d.P50 != 250 || d.N != 500 {
		t.Errorf("summarize: %+v", d)
	}
}

func TestWindowMean(t *testing.T) {
	// 10 observations averaging 5, then 30 more averaging 9: the window
	// mean is 9 over 30.
	before := histSnap{Count: 10, Mean: 5}
	after := histSnap{Count: 40, Mean: (10*5 + 30*9) / 40.0}
	m, n := windowMean(before, after)
	if n != 30 || m < 9-1e-9 || m > 9+1e-9 {
		t.Errorf("windowMean = %v over %v, want 9 over 30", m, n)
	}
	if m, n := windowMean(after, after); m != 0 || n != 0 {
		t.Errorf("empty window = %v over %v", m, n)
	}
}

// TestHeldOutPrefix checks the property the workloads rely on: building
// N+M requests yields the same tables as building N, and its first N
// requests are the N-request build's, so a server trained on N requests
// has never seen the generator's held-out suffix.
func TestHeldOutPrefix(t *testing.T) {
	const scale, n, m = 0.0005, 300, 200
	for _, seed := range []int64{1, 2} {
		short, swl := synth.BuildWorkload(synth.Options{Scale: scale, NumTables: numTables, Seed: seed, Requests: n})
		long, lwl := synth.BuildWorkload(synth.Options{Scale: scale, NumTables: numTables, Seed: seed, Requests: n + m})
		for i := range short {
			for id := 0; id < short[i].NumVectors(); id++ {
				a, _ := short[i].Raw(uint32(id))
				b, _ := long[i].Raw(uint32(id))
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d: table %d vector %d differs", seed, i, id)
				}
			}
		}
		for i, tr := range swl.Traces {
			for q := range tr.Queries {
				if !equalIDs(tr.Queries[q], lwl.Traces[i].Queries[q]) {
					t.Fatalf("seed %d: table %d request %d differs", seed, i, q)
				}
			}
		}
		if got := len(heldOut(lwl, n)); got != m {
			t.Fatalf("held out %d requests, want %d", got, m)
		}
	}
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stallBackend serves deterministic vectors, blocks every lookup while
// stalled is set, and corrupts id corrupt when it is non-zero.
type stallBackend struct {
	stalled atomic.Bool
	corrupt uint32
}

func vecFor(table string, id uint32) []byte {
	v := make([]byte, 2*vecDim)
	binary.LittleEndian.PutUint32(v, id)
	copy(v[4:], table)
	return v
}

func (b *stallBackend) LookupBatchRaw(table string, ids []uint32) (int, [][]byte, func(), error) {
	for b.stalled.Load() {
		time.Sleep(time.Millisecond)
	}
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = vecFor(table, id)
		if id == b.corrupt && id != 0 {
			out[i][2*vecDim-1] ^= 1
		}
	}
	return vecDim, out, nil, nil
}

func (b *stallBackend) UpdateRaw(string, uint32, []byte) error { return nil }

// newTestLoadgen serves be over bwp on loopback and returns a generator
// driving it with 50 two-table requests; cleanup stops both.
func newTestLoadgen(t *testing.T, be wire.Backend) *loadgen {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Backend: be}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	client, _, err := dialCounted(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	names := []string{"a", "b"}
	reqs := make([]request, 50)
	for i := range reqs {
		reqs[i] = request{{uint32(i), uint32(i + 1)}, {uint32(i)}}
	}
	return &loadgen{
		clients: []*wire.Client{client},
		names:   names,
		reqs:    reqs,
		timeout: 5 * time.Second,
		rng:     rand.New(rand.NewSource(1)),
		expect:  func(tb int, id uint32) []byte { return vecFor(names[tb], id) },
	}
}

// TestWrongVectorAborts checks that one flipped bit in one returned vector
// is reported as a mismatch, not as a failed operation.
func TestWrongVectorAborts(t *testing.T) {
	g := newTestLoadgen(t, &stallBackend{corrupt: 7})
	res := g.run(200, 0, 500*time.Millisecond, false)
	if !errors.Is(g.err(), errMismatch) {
		t.Fatalf("err = %v, want a mismatch", g.err())
	}
	if fr, fu := countFailed(res); fr+fu != 0 {
		t.Errorf("%d operations counted failed; a wrong vector is not a failure", fr+fu)
	}
}

// TestOpenLoopSeesStall drives a fake bwp server that stops answering for
// 300 ms in the middle of a 2 s phase. Every request due during the stall
// is timed from when it was due, so the stall shows in p99 even though
// only a few requests were sent during it.
func TestOpenLoopSeesStall(t *testing.T) {
	be := &stallBackend{}
	g := newTestLoadgen(t, be)
	go func() {
		time.Sleep(time.Second)
		be.stalled.Store(true)
		time.Sleep(300 * time.Millisecond)
		be.stalled.Store(false)
	}()
	res := g.run(200, 0, 2*time.Second, true)
	if err := g.err(); err != nil {
		t.Fatal(err)
	}
	d := summarize(reqLatencies(res, nil), 0.99)
	if d.N < 300 {
		t.Fatalf("only %d requests in 2s at 200/s", d.N)
	}
	if d.Tail < 200_000 {
		t.Errorf("p%.4g = %.0fus: the 300ms stall is missing from the tail", d.TailQ*100, d.Tail)
	}
	if d.P50 > 50_000 {
		t.Errorf("p50 = %.0fus: the stall leaked into the median", d.P50)
	}
	// Requests due during the stall waited for it; count them.
	var stalled int
	for _, q := range res.reqs {
		if float64(q.done-q.intended) > 100e6 {
			stalled++
		}
	}
	if stalled < 20 {
		t.Errorf("%d requests saw the stall, want about 60 (300 ms at 200/s)", stalled)
	}
}

// TestOracle checks the update oracle's acceptance rule.
func TestOracle(t *testing.T) {
	o := newOracle()
	base, v1, v2 := []byte{0}, []byte{1}, []byte{2}
	k := key(1, 7)
	send := o.now()
	u1 := o.issue(k, v1)
	if o.issue(k, v2) != nil {
		t.Fatal("second update issued while the first is in flight")
	}
	recv := o.now()
	// In flight during the lookup: old or new value.
	if !o.check(k, base, base, send, recv) || !o.check(k, v1, base, send, recv) {
		t.Error("in-flight update: old and new value must both pass")
	}
	o.ack(u1)
	send2 := o.now()
	recv2 := o.now()
	if o.check(k, base, base, send2, recv2) {
		t.Error("lookup sent after the ack returned the old value")
	}
	if !o.check(k, v1, base, send2, recv2) {
		t.Error("lookup sent after the ack rejected the new value")
	}
	if o.check(k, v2, base, send2, recv2) {
		t.Error("a value never written passed")
	}
}

// TestCPUShares profiles this test burning CPU and checks that the decoder
// finds the samples and that every one lands in exactly one layer.
func TestCPUShares(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		_ = summarize([]float64{3, 1, 2, 5, 4}, 0.5)
	}
	pprof.StopCPUProfile()
	f.Close()
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64 // 0 when nothing was sampled
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.pread", "bandana/internal/nvm.(*FileStore).ReadBlock"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"bandana/internal/fp16.DecodeSlice", "bandana/internal/core.(*Store).serveBatch"}, "fp16"},
		{[]string{"runtime.memmove", "bandana/internal/vcache.(*Cache).Get", "bandana/internal/core.x"}, "vcache"},
		{[]string{"bandana/internal/metrics.(*Histogram).Observe", "bandana/internal/core.x"}, "other"},
		{[]string{"runtime.schedule"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
