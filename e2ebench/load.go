package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bandana/internal/wire"
)

// countingConn counts the bytes a client moves over its connection.
type countingConn struct {
	net.Conn
	rx, tx atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// errMismatch marks a wrong vector: the run is aborted, not counted as a
// failed operation.
var errMismatch = errors.New("wrong vector")

// request is one recommendation request: one id list per table, sent as
// one concurrent bwp lookup frame per table.
type request [][]uint32

// reqRec is the client-side record of one request, in nanoseconds from
// the phase start.
type reqRec struct {
	intended, sent, done int64
	frameStart           []int64 // per table; traced phases only
	frameEnd             []int64
	failed               bool
}

// updRec is the client-side record of one update.
type updRec struct {
	intended, done int64
	failed         bool
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	dur      time.Duration
	reqs     []reqRec
	upds     []updRec
	backlog  int // requests outstanding when the schedule ended
	cpuStart float64
	cpuEnd   float64
}

// loadgen drives the server over bwp with open-loop Poisson arrivals.
type loadgen struct {
	clients []*wire.Client
	names   []string
	reqs    []request // the held-out request stream, replayed in order
	next    int       // index of the next request in reqs
	expect  func(t int, id uint32) []byte
	oracle  *oracle // non-nil when updates are sent
	timeout time.Duration
	rng     *rand.Rand // arrivals
	updRng  *rand.Rand // update targets and values, guarded by recentMu
	dim     int

	recentMu sync.Mutex
	recent   []uint64 // ring of recently requested table<<32|id keys
	recentN  int

	mismatch atomic.Pointer[error]
}

func (g *loadgen) abort(err error) {
	g.mismatch.CompareAndSwap(nil, &err)
}

// err returns the first correctness failure, if any.
func (g *loadgen) err() error {
	if p := g.mismatch.Load(); p != nil {
		return *p
	}
	return nil
}

// sleepUntil blocks until t. On the 2-vCPU VM the benchmark was built on,
// Go timers fired about 1 ms late, which would dominate a sub-millisecond
// request; a nanosleep on the calling (locked) thread fired within ~70 us.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and re-check
	}
}

// arrivals returns Poisson arrival offsets at rate per second over dur.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []int64 {
	if rate <= 0 {
		return nil
	}
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, int64(t*1e9))
	}
}

// run drives one phase: requests at rate and updates at updRate, both open
// loop, for dur, then waits for every outstanding operation.
func (g *loadgen) run(rate, updRate float64, dur time.Duration, traced bool) *phaseResult {
	reqAt := arrivals(g.rng, rate, dur)
	updAt := arrivals(g.rng, updRate, dur)
	res := &phaseResult{dur: dur, reqs: make([]reqRec, len(reqAt)), upds: make([]updRec, len(updAt))}
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	res.cpuStart = selfCPU()
	start := time.Now()
	schedule := func(at []int64, launch func(i int)) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i, off := range at {
			sleepUntil(start.Add(time.Duration(off)))
			launch(i)
		}
	}
	var sched sync.WaitGroup
	if len(updAt) > 0 {
		sched.Add(1)
		go func() {
			defer sched.Done()
			schedule(updAt, func(i int) {
				u := &res.upds[i]
				u.intended = updAt[i]
				t, id, v := g.pickUpdate()
				wg.Add(1)
				go func() {
					defer wg.Done()
					g.update(start, u, t, id, v)
				}()
			})
		}()
	}
	schedule(reqAt, func(i int) {
		r := &res.reqs[i]
		r.intended = reqAt[i]
		q := g.reqs[g.next%len(g.reqs)]
		c := g.clients[g.next%len(g.clients)]
		g.next++
		g.remember(q)
		wg.Add(1)
		outstanding.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			g.request(start, c, r, q, traced)
		}()
	})
	sched.Wait()
	// The schedule is over: whatever is still in flight is backlog.
	sleepUntil(start.Add(dur))
	res.backlog = int(outstanding.Load())
	wg.Wait()
	res.cpuEnd = selfCPU()
	return res
}

// request sends one request's per-table frames concurrently and records
// when the last one returned.
func (g *loadgen) request(start time.Time, c *wire.Client, r *reqRec, q request, traced bool) {
	ctx, cancel := context.WithTimeout(context.Background(), g.timeout)
	defer cancel()
	r.sent = int64(time.Since(start))
	if traced {
		r.frameStart = make([]int64, len(q))
		r.frameEnd = make([]int64, len(q))
	}
	var failed atomic.Bool
	var fw sync.WaitGroup
	for t := range q {
		fw.Add(1)
		go func() {
			defer fw.Done()
			var sendSeq int64
			if g.oracle != nil {
				sendSeq = g.oracle.now()
			}
			if traced {
				r.frameStart[t] = int64(time.Since(start))
			}
			_, vecs, err := c.LookupBatchRaw(ctx, g.names[t], q[t])
			if traced {
				r.frameEnd[t] = int64(time.Since(start))
			}
			if err != nil {
				failed.Store(true)
				return
			}
			if len(vecs) != len(q[t]) {
				g.abort(fmt.Errorf("%w: %s: %d vectors for %d ids", errMismatch, g.names[t], len(vecs), len(q[t])))
				return
			}
			var recvSeq int64
			if g.oracle != nil {
				recvSeq = g.oracle.now()
			}
			for j, id := range q[t] {
				base := g.expect(t, id)
				ok := bytes.Equal(vecs[j], base)
				if g.oracle != nil {
					ok = g.oracle.check(key(t, id), vecs[j], base, sendSeq, recvSeq)
				}
				if !ok {
					detail := ""
					if g.oracle != nil {
						detail = g.oracle.explain(key(t, id), vecs[j], base, sendSeq, recvSeq)
					}
					g.abort(fmt.Errorf("%w: %s id %d%s", errMismatch, g.names[t], id, detail))
					return
				}
			}
		}()
	}
	fw.Wait()
	r.done = int64(time.Since(start))
	r.failed = failed.Load()
}

func key(t int, id uint32) uint64 { return uint64(t)<<32 | uint64(id) }

// remember records a request's ids as update candidates: online training
// updates the vectors it just used.
func (g *loadgen) remember(q request) {
	if g.oracle == nil {
		return
	}
	g.recentMu.Lock()
	defer g.recentMu.Unlock()
	for t, ids := range q {
		for _, id := range ids {
			g.recent[g.recentN%len(g.recent)] = key(t, id)
			g.recentN++
		}
	}
}

// pickUpdate chooses a recently requested id that has no update in flight,
// gives it a fresh value and registers the update with the oracle, so no
// second update to the id can start before this one is acknowledged.
func (g *loadgen) pickUpdate() (int, uint32, *version) {
	g.recentMu.Lock()
	defer g.recentMu.Unlock()
	n := min(g.recentN, len(g.recent))
	for {
		k := g.recent[g.updRng.Intn(n)]
		if v := g.oracle.issue(k, updateValue(g.updRng, g.dim)); v != nil {
			return int(k >> 32), uint32(k), v
		}
	}
}

// updateValue returns dim random finite fp16 values in [-2, 2).
func updateValue(rng *rand.Rand, dim int) []byte {
	raw := make([]byte, 2*dim)
	for i := 0; i < dim; i++ {
		// sign | exponent 0..15 (at most 2^0 magnitude range) | mantissa
		h := uint16(rng.Intn(2))<<15 | uint16(rng.Intn(16))<<10 | uint16(rng.Intn(1024))
		raw[2*i] = byte(h)
		raw[2*i+1] = byte(h >> 8)
	}
	return raw
}

// update sends one update and records its acknowledgement in the oracle.
func (g *loadgen) update(start time.Time, u *updRec, t int, id uint32, v *version) {
	ctx, cancel := context.WithTimeout(context.Background(), g.timeout)
	defer cancel()
	c := g.clients[int(id)%len(g.clients)]
	err := c.Update(ctx, g.names[t], id, v.val)
	u.done = int64(time.Since(start))
	if err != nil {
		// The update may or may not have been applied: the oracle keeps
		// accepting both values from now on.
		u.failed = true
		return
	}
	g.oracle.ack(v)
}

// oracle tracks acknowledged and in-flight updates so a looked-up vector
// can be checked bit-exactly while updates race with lookups. Time is a
// logical clock of issue, acknowledgement, send and receive events.
type oracle struct {
	clock atomic.Int64
	mu    sync.Mutex
	hist  map[uint64][]*version
	busyK map[uint64]bool
}

type version struct {
	val        []byte
	issue, ack int64 // ack 0: in flight or unknown outcome
	key        uint64
}

func newOracle() *oracle {
	return &oracle{hist: map[uint64][]*version{}, busyK: map[uint64]bool{}}
}

func (o *oracle) now() int64 { return o.clock.Add(1) }

// issue registers an update of k to val, or returns nil when k already has
// one in flight.
func (o *oracle) issue(k uint64, val []byte) *version {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.busyK[k] {
		return nil
	}
	v := &version{val: val, issue: o.now(), key: k}
	o.hist[k] = append(o.hist[k], v)
	o.busyK[k] = true
	return v
}

func (o *oracle) ack(v *version) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v.ack = o.now()
	delete(o.busyK, v.key)
}

// check reports whether got is a value the id may hold for a lookup sent
// at logical time send and answered at recv: the last value acknowledged
// before send (base when none), or any update not yet acknowledged at send
// and issued before recv. Updates to one id never overlap (pickUpdate
// skips busy ids), so acknowledgement order is application order.
func (o *oracle) check(k uint64, got, base []byte, send, recv int64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	committed := base
	var committedAt int64
	for _, v := range o.hist[k] {
		if v.ack != 0 && v.ack < send && v.ack > committedAt {
			committed, committedAt = v.val, v.ack
		}
	}
	if bytes.Equal(got, committed) {
		return true
	}
	for _, v := range o.hist[k] {
		if v.issue < recv && (v.ack == 0 || v.ack > send) && bytes.Equal(got, v.val) {
			return true
		}
	}
	return false
}

// explain describes a value check refused: which known value, if any, the
// lookup returned, against the update history of the id.
func (o *oracle) explain(k uint64, got, base []byte, send, recv int64) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	which := "an unknown value"
	if bytes.Equal(got, base) {
		which = "the original value"
	}
	var b bytes.Buffer
	for i, v := range o.hist[k] {
		if bytes.Equal(got, v.val) {
			which = fmt.Sprintf("update #%d", i)
		}
		fmt.Fprintf(&b, " #%d(issue=%d ack=%d)", i, v.issue, v.ack)
	}
	return fmt.Sprintf(" (lookup sent at %d, answered at %d, returned %s; updates:%s)", send, recv, which, b.String())
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// dialCounted connects a bwp client through a byte-counting connection.
func dialCounted(addr string) (*wire.Client, *countingConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	cc := &countingConn{Conn: nc}
	return wire.NewClient(cc, wire.Options{}), cc, nil
}
