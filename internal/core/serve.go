package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bandana/internal/fp16"
	"bandana/internal/iosched"
	"bandana/internal/nvm"
)

// This file is the serving engine: the lock-free-read lookup paths, the
// cache interaction helpers and the single-vector update path. Everything
// here operates on a tableState snapshot loaded once per operation; the
// mutating layers (train.go, rewrite.go, adapt.go) publish new snapshots
// through the atomic state pointer, so serving never blocks on them.

// batchBufBlocks is the largest batched-miss read served from the pooled
// batch buffer; rarer, larger batches fall back to a one-off allocation.
const batchBufBlocks = 8

// dedupeScanThreshold is the batch size up to which duplicate ids are found
// by linear scan (no allocation); larger batches use a map.
const dedupeScanThreshold = 32

// batchBufPool recycles the multi-block read buffers of serveBatch.
var batchBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, batchBufBlocks*nvm.BlockSize)
		return &b
	},
}

// Lookup returns the embedding vector id of table tableIdx: a batch of one
// through LookupBatch. The returned slice is a fresh decode owned by the
// caller.
func (s *Store) Lookup(tableIdx int, id uint32) ([]float32, error) {
	return s.LookupTraced(tableIdx, id, nil)
}

// LookupByName is Lookup with a table name.
func (s *Store) LookupByName(name string, id uint32) ([]float32, error) {
	i, err := s.TableIndex(name)
	if err != nil {
		return nil, err
	}
	return s.Lookup(i, id)
}

// LookupBatch returns the embeddings of every id in ids from table tableIdx.
// Lookups that miss the cache are grouped by NVM block, so a batch that hits
// k distinct blocks issues exactly k block reads regardless of how many of
// its vectors live in each block — the batched analogue of the paper's
// prefetching. The returned vectors are owned by the caller: they are
// decoded from the fp16 views into one backing array per call.
func (s *Store) LookupBatch(tableIdx int, ids []uint32) ([][]float32, error) {
	return s.LookupBatchTraced(tableIdx, ids, nil)
}

// LookupBatchRaw is LookupBatch without the decode: each returned slice is
// the vector's fp16 encoding, copied out of the cache arenas (or the block
// image) into one caller-owned buffer. It runs the full serving machinery
// (counters, admission, prefetch, cache fill), so a raw lookup warms the
// cache for float lookups and vice versa. Servers on the hot path use
// LookupBatchRawLeased to skip the copy.
func (s *Store) LookupBatchRaw(tableIdx int, ids []uint32) ([][]byte, error) {
	out, release, err := s.LookupBatchRawLeased(tableIdx, ids)
	if err != nil {
		return nil, err
	}
	copyRawViews(out)
	release()
	return out, nil
}

// LookupBatchRawLeased is LookupBatchRaw returning the cache's views
// directly: zero copies on the wire protocol's read path. The returned
// slices are read-only and valid until release is called, which the caller
// must do exactly once, after it has finished reading (or serializing) them.
// release is non-nil iff err is nil.
func (s *Store) LookupBatchRawLeased(tableIdx int, ids []uint32) ([][]byte, func(), error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, len(ids))
	release, err := st.serveBatch(s.device, ids, out, nil)
	if err != nil {
		return nil, nil, err
	}
	return out, release, nil
}

// copyRawViews rewrites every view in out into one freshly allocated buffer,
// so the results survive the lease release.
func copyRawViews(out [][]byte) {
	n := 0
	for _, v := range out {
		n += len(v)
	}
	if n == 0 {
		return
	}
	buf := make([]byte, 0, n)
	for i, v := range out {
		off := len(buf)
		buf = append(buf, v...)
		out[i] = buf[off:len(buf):len(buf)]
	}
}

// TableDim returns the per-vector element count of table tableIdx.
func (s *Store) TableDim(tableIdx int) (int, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return 0, err
	}
	return st.dim, nil
}

// Request is one recommendation request: for each table (by index), the
// vector IDs to look up.
type Request [][]uint32

// ServeRequest resolves every lookup of a request, returning the embeddings
// grouped by table.
func (s *Store) ServeRequest(req Request) ([][][]float32, error) {
	return s.ServeRequestTraced(req, nil)
}

// UpdateVector overwrites the embedding of vector id in table tableIdx
// (e.g. after periodic re-training of the model) and invalidates the cached
// copy. Without an update log the write read-modify-writes the containing
// NVM block; with one (Config.UpdateLog) it appends a single log record and
// is served from the DRAM overlay until compaction folds it into the image
// (see deltalog.go).
func (s *Store) UpdateVector(tableIdx int, id uint32, vec []float32) error {
	_, err := s.UpdateVectorSeq(tableIdx, id, vec)
	return err
}

// UpdateVectorSeq is UpdateVector returning the snapshot seq the update
// committed at — under concurrent updates the store's live SnapshotSeq may
// already be past it, so callers that promise "the seq of THIS update"
// (the HTTP update handler) must use this return value, not a later read.
func (s *Store) UpdateVectorSeq(tableIdx int, id uint32, vec []float32) (uint64, error) {
	if err := s.checkWritable(); err != nil {
		return 0, err
	}
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return 0, err
	}
	if len(vec) != st.dim {
		return 0, fmt.Errorf("core: table %q: vector has %d elements, want %d", st.name, len(vec), st.dim)
	}
	return s.applyUpdate(st, id, fp16.EncodeSlice(make([]byte, 0, st.vecBytes), vec), true)
}

// UpdateVectorRaw is UpdateVector with an already-encoded fp16 payload
// (exactly VectorBytes long) — the binary wire protocol's write path, which
// carries fp16 end to end and never decodes.
func (s *Store) UpdateVectorRaw(tableIdx int, id uint32, raw []byte) error {
	if err := s.checkWritable(); err != nil {
		return err
	}
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return err
	}
	if len(raw) != st.vecBytes {
		return fmt.Errorf("core: table %q: raw vector has %d bytes, want %d", st.name, len(raw), st.vecBytes)
	}
	_, err = s.applyUpdate(st, id, raw, false)
	return err
}

// cacheGet serves a cache hit for id, clearing the prefetched flag and
// updating counters. It returns the entry's fp16 view, which points into a
// slab arena and is only valid while the operation's lease is held, or nil
// on a miss. h is hashID(id), shared between shard routing and counter
// striping.
func (st *storeTable) cacheGet(ts *tableState, id uint32, h uint64) []byte {
	out, wasPrefetch, ok := ts.cache.Get(id)
	if !ok {
		return nil
	}
	st.hits.Inc(h)
	if wasPrefetch {
		st.prefetchHits.Inc(h)
	}
	return out
}

// cacheInsert caches the fp16 encoding raw of a vector at queue position pos
// unless the table was mutated since epoch was read from st.epoch (in which
// case the bytes may be stale — the cache checks under the shard lock).
// Requested vectors pass pos 0 and prefetched=false; admitted prefetches
// carry the policy's position. The cache copies raw.
func (st *storeTable) cacheInsert(ts *tableState, id uint32, raw []byte, pos float64, prefetched bool, epoch uint64) bool {
	return ts.cache.AddAtGuard(id, raw, pos, prefetched, &st.epoch, epoch)
}

// admitBlock offers every not-yet-cached vector of the freshly read block to
// the admission policy, caching the ones it admits. requested reports IDs
// that were explicitly asked for in this operation (they are cached
// separately and must not be double-counted as prefetches).
func (st *storeTable) admitBlock(ts *tableState, buf []byte, epoch uint64, members []uint32, requested func(uint32) bool) {
	for mslot, other := range members {
		if requested(other) || ts.cache.Contains(other) {
			continue
		}
		if st.overlay != nil && st.overlay.contains(other) {
			// The block image's copy of an overlaid vector is stale; its
			// authoritative bytes are served from the overlay until
			// compaction, so never cache the image's copy.
			continue
		}
		admit, pos := ts.policy.AdmitPrefetch(other)
		if !admit {
			continue
		}
		raw := buf[mslot*st.vecBytes : (mslot+1)*st.vecBytes]
		if st.cacheInsert(ts, other, raw, pos, true, epoch) {
			st.prefetchAdds.Inc(hashID(other))
		}
	}
}

// readBlocksMiss reads a set of distinct absolute device blocks on the miss
// path: through the I/O scheduler as demand reads when the store has one
// (coalescing with concurrent misses for the same blocks, batching with
// independent ones), inline otherwise. It returns the slowest read's latency
// and, when the scheduler served any block from someone else's device read,
// a per-block coalesced mask (nil otherwise). The caller must hold
// st.rewriteMu shared and must have loaded epoch from st.epoch BEFORE
// calling.
//
// Freshness: the epoch rides along as the read's tag. A read that attached
// to an already-issued device read (Late) may receive bytes snapshotted
// arbitrarily earlier — in particular before this caller's own epoch load —
// so comparing the *caller's* epoch to the current one cannot detect the
// staleness. Comparing the *leader's* tag can, exactly: the epoch is
// monotonic, so leaderTag == current epoch proves no NVM write to this
// table landed anywhere between the leader's epoch load (which precedes
// the device read) and now, making the bytes current; any write in between
// leaves leaderTag behind the current epoch. If any block was served Late by
// such a leader, the whole set is re-submitted. Returns the epoch the bytes
// are consistent with.
func (st *storeTable) readBlocksMiss(device *nvm.Device, abs []int, dst []byte, epoch uint64) (lat, wait float64, coalesced []bool, outEpoch uint64, err error) {
	if st.sched == nil {
		lat, err = device.ReadBlocks(abs, dst)
		return lat, 0, nil, epoch, err
	}
	for {
		results, err := st.sched.ReadBlocks(abs, dst, iosched.Demand, epoch)
		if err != nil {
			return 0, 0, nil, epoch, err
		}
		stale := false
		for _, r := range results {
			if r.Late && r.LeaderTag != st.epoch.Load() {
				stale = true
				break
			}
		}
		if stale {
			epoch = st.epoch.Load()
			continue
		}
		var anyCoalesced bool
		for _, r := range results {
			if r.LatencyUS > lat {
				lat = r.LatencyUS
			}
			if r.WaitUS > wait {
				wait = r.WaitUS
			}
			anyCoalesced = anyCoalesced || r.Coalesced
		}
		if anyCoalesced {
			coalesced = make([]bool, len(results))
			for i, r := range results {
				coalesced[i] = r.Coalesced
			}
		}
		return lat, wait, coalesced, epoch, nil
	}
}

// observeMissIO records the wait/service decomposition of one miss-path
// device read into the table's stage histograms and the optional trace.
// LatencyUS (service) keeps its historical meaning in lookupLatency; the
// queue-wait component is only meaningful (and only recorded) when reads go
// through the I/O scheduler.
func (st *storeTable) observeMissIO(lat, wait float64, tr *StageTrace) {
	st.lookupLatency.Observe(lat)
	if st.sched != nil {
		st.queueWaitLatency.Observe(wait)
	}
	if tr != nil {
		tr.ServiceUS += lat
		tr.QueueWaitUS += wait
	}
}

// batchDedupe finds the repeated ids of a batch. Duplicate detection stays
// allocation-free for typical batch sizes (a linear scan of the ids already
// seen); only large batches pay for a map.
type batchDedupe struct {
	ids   []uint32
	first map[uint32]int
}

func newBatchDedupe(ids []uint32) batchDedupe {
	d := batchDedupe{ids: ids}
	if len(ids) > dedupeScanThreshold {
		d.first = make(map[uint32]int, len(ids))
	}
	return d
}

// firstOf returns the earlier position holding ids[i], or false when i is
// the id's first occurrence. Positions must be visited in ascending order.
func (d *batchDedupe) firstOf(i int) (int, bool) {
	id := d.ids[i]
	if d.first == nil {
		for j := 0; j < i; j++ {
			if d.ids[j] == id {
				return j, true
			}
		}
		return 0, false
	}
	if j, ok := d.first[id]; ok {
		return j, true
	}
	d.first[id] = i
	return 0, false
}

// decodeViews decodes the fp16 views that serveBatch returned for ids into
// one caller-owned backing array, timing the whole decode as one
// decode-stage observation. Repeated ids share one decoded slice.
func (st *storeTable) decodeViews(ids []uint32, raws [][]byte, tr *StageTrace) [][]float32 {
	start := time.Now()
	out := make([][]float32, len(raws))
	backing := make([]float32, len(raws)*st.dim)
	dups := newBatchDedupe(ids)
	for i, raw := range raws {
		if j, ok := dups.firstOf(i); ok {
			out[i] = out[j]
			continue
		}
		out[i], backing = backing[:st.dim:st.dim], backing[st.dim:]
		fp16.DecodeSlice(out[i], raw)
	}
	d := usSince(start)
	st.decodeLatency.Observe(d)
	if tr != nil {
		tr.DecodeUS += d
	}
	return out
}

// serveBatch serves a set of vector reads into out (one fp16 view per id),
// grouping cache misses by NVM block so that each distinct block is read
// only once per batch. tr, when non-nil, accumulates the per-stage latency
// breakdown.
//
// Cache hits are views into the cache's slab arenas, valid only while the
// operation's lease is held: on success serveBatch returns the lease's
// release, which the caller must invoke once it no longer reads out; on
// error it has released the lease itself. Only pass-1 cache hits hand out
// leased views (overlay bytes are heap-stable and pass-2 block reads are
// fresh copies), so the single lease taken before pass 1 covers everything.
func (st *storeTable) serveBatch(device *nvm.Device, ids []uint32, out [][]byte, tr *StageTrace) (func(), error) {
	for _, id := range ids {
		if err := st.checkID(id); err != nil {
			return nil, err
		}
	}
	ts := st.loadState()
	// Pass 2 may reload the state snapshot, but a swapped-in cache never
	// contributes views to this operation's output (pass 2 only inserts),
	// so leasing the pass-1 cache is sufficient.
	release := ts.cache.Lease()
	// One batch is one co-access set ("query" in the paper's terms): record
	// it whole so the adaptation engine sees the hypergraph SHP needs, not
	// just a flat ID stream.
	if r := st.recorder.Load(); r != nil {
		r.Record(ids)
	}

	// Pass 1: serve cache hits and collect misses. Real batches are
	// power-law — the same hot id often appears many times in one request —
	// so repeated ids are deduplicated here: each unique id is resolved
	// (cache probe, block read) exactly once and the result is fanned back
	// out to every position. Counter semantics are unchanged: every instance
	// still counts as a lookup and inherits its unique id's hit/miss
	// classification, exactly as when each instance probed the cache itself.
	type missRef struct {
		pos int
		id  uint32
	}
	var missed []missRef
	dups := newBatchDedupe(ids)
	var dupMisses [][2]int // {duplicate position, first position} to backfill
	for i, id := range ids {
		h := hashID(id)
		nth := st.lookups.Inc(h)
		if tr != nil {
			tr.Lookups++
		}
		if ts.policy != nil {
			ts.policy.OnAccess(id)
		}
		if j, ok := dups.firstOf(i); ok {
			if out[j] != nil {
				st.hits.Inc(h)
				if tr != nil {
					tr.Hits++
				}
				out[i] = out[j]
			} else {
				st.misses.Inc(h)
				if tr != nil {
					tr.Misses++
				}
				dupMisses = append(dupMisses, [2]int{i, j})
			}
			continue
		}
		// The probe stage is timed on a sampled subset of unique ids (always
		// under a trace): two time.Now calls would be a measurable tax on
		// the ~120 ns all-DRAM hit path, and a sampled probe histogram
		// answers the same operator question. The decision reuses the
		// lookup counter's returned value (see StripedCounter.Inc), which is
		// free.
		probeTimed := tr != nil || nth&probeSampleMask == 1
		var probeStart time.Time
		if probeTimed {
			probeStart = time.Now()
		}
		out[i] = st.cacheGet(ts, id, h)
		if probeTimed {
			d := usSince(probeStart)
			st.probeLatency.Observe(d)
			if tr != nil {
				tr.ProbeUS += d
			}
		}
		if out[i] != nil {
			if tr != nil {
				tr.Hits++
			}
			continue
		}
		if st.overlay != nil {
			// Probe the delta overlay before the miss path: an updated
			// vector's authoritative bytes live here until compaction folds
			// them into the block image (whose copy is stale). The epoch is
			// loaded BEFORE the overlay read so a concurrent newer update —
			// overlay put, then epoch bump, then cache invalidate — can never
			// let this older copy be cached past its invalidation.
			epoch := st.epoch.Load()
			if raw := st.overlay.get(id); raw != nil {
				st.hits.Inc(h)
				st.deltaHits.Inc(h)
				if tr != nil {
					tr.Hits++
				}
				out[i] = raw
				st.cacheInsert(ts, id, raw, 0, false, epoch)
				continue
			}
		}
		st.misses.Inc(h)
		if tr != nil {
			tr.Misses++
		}
		missed = append(missed, missRef{pos: i, id: id})
	}
	if len(missed) == 0 {
		return release, nil
	}

	// Pass 2: one NVM read per distinct block; copy every requested vector
	// out of it and apply the usual prefetch admission to the rest. Blocks
	// are processed in ascending order so a batch's cache effects are
	// deterministic. The whole pass holds the rewrite lock shared so the
	// layout used for grouping and slicing matches the bytes on NVM.
	// Independent misses still overlap at the device (shared mode), and a
	// goroutine waiting on the I/O scheduler still holds its read lock, so
	// in-flight reads drain before a rewrite's exclusive acquisition.
	st.rewriteMu.RLock()
	defer st.rewriteMu.RUnlock()
	ts = st.loadState()
	missesByBlock := make(map[int][]missRef)
	for _, ref := range missed {
		block := ts.layout.BlockOf(ref.id)
		missesByBlock[block] = append(missesByBlock[block], ref)
	}
	blocks := make([]int, 0, len(missesByBlock))
	for block := range missesByBlock {
		blocks = append(blocks, block)
	}
	sort.Ints(blocks)

	// One batched device read covers every missed block: the reads overlap
	// at the device (and collapse into offset I/O on the file backend)
	// instead of being issued one by one. Small batches reuse pooled
	// buffers so the steady-state miss path stays allocation-free.
	var batch []byte
	switch {
	case len(blocks) == 1:
		bufp := getBlockBuf()
		defer putBlockBuf(bufp)
		batch = *bufp
	case len(blocks) <= batchBufBlocks:
		bufp := batchBufPool.Get().(*[]byte)
		defer batchBufPool.Put(bufp)
		batch = (*bufp)[:len(blocks)*nvm.BlockSize]
	default:
		batch = make([]byte, len(blocks)*nvm.BlockSize)
	}
	abs := make([]int, len(blocks))
	for i, block := range blocks {
		abs[i] = st.blockBase + block
	}
	epoch := st.epoch.Load()
	lat, wait, coalesced, epoch, err := st.readBlocksMiss(device, abs, batch, epoch)
	if err != nil {
		release()
		return nil, fmt.Errorf("core: table %q: %w", st.name, err)
	}
	st.observeMissIO(lat, wait, tr)

	var members []uint32
	for bi, block := range blocks {
		refs := missesByBlock[block]
		buf := batch[bi*nvm.BlockSize : (bi+1)*nvm.BlockSize]
		if coalesced != nil && coalesced[bi] {
			st.coalescedReads.Inc(uint64(block))
		} else {
			st.blockReads.Inc(uint64(block))
			if tr != nil {
				tr.BlockReads++
			}
		}

		requested := make(map[uint32]struct{}, len(refs))
		for _, ref := range refs {
			requested[ref.id] = struct{}{}
			if st.overlay != nil {
				// Updated between the pass-1 overlay probe and this block
				// read: the image bytes are stale. Serve the overlay's and
				// skip the cache fill — the epoch guard alone cannot catch
				// this case, because a delta update moves the epoch without
				// touching NVM, so a post-update block re-read still returns
				// pre-update bytes.
				if oraw := st.overlay.get(ref.id); oraw != nil {
					out[ref.pos] = oraw
					continue
				}
			}
			slot := ts.layout.SlotOf(ref.id)
			raw := append(make([]byte, 0, st.vecBytes), buf[slot*st.vecBytes:(slot+1)*st.vecBytes]...)
			out[ref.pos] = raw
			st.cacheInsert(ts, ref.id, raw, 0, false, epoch)
		}
		if ts.prefetch && ts.policy != nil {
			members = ts.layout.BlockMembers(block, members[:0])
			st.admitBlock(ts, buf, epoch, members, func(other uint32) bool {
				_, ok := requested[other]
				return ok
			})
		}
	}
	// Fan the deduplicated misses back out to the repeated positions.
	for _, d := range dupMisses {
		out[d[0]] = out[d[1]]
	}
	return release, nil
}

// updateRaw is the write-through (no update log) single-vector update: a
// journaled sub-block patch of the vector's slot. id must be in range and
// raw exactly vecBytes long (callers validate). It is also the replica
// apply path for stores without an overlay.
func (st *storeTable) updateRaw(device *nvm.Device, id uint32, raw []byte) error {
	// Serialize concurrent updates of the table (two patches of the same
	// slot must not interleave) and exclude whole-table rewrites, which
	// read the image and write it back under this lock.
	st.updateMu.Lock()
	defer st.updateMu.Unlock()
	ts := st.loadState()

	// Patch exactly the vector's bytes inside its containing block. The
	// earlier read-modify-write here had to fetch the whole block first —
	// and carefully fence against coalesced reads returning a stale image,
	// because writing a stale pre-image back would silently revert every
	// other slot in the block. The patch write needs no pre-image, so the
	// lost-update hazard (and the read, and its device bandwidth) is gone
	// structurally: a vector update is one journal append plus one
	// sub-block write on the file backend.
	block := ts.layout.BlockOf(id)
	slot := ts.layout.SlotOf(id)
	if err := device.WriteBlockPatch(st.blockBase+block, slot*st.vecBytes, raw); err != nil {
		return fmt.Errorf("core: table %q: %w", st.name, err)
	}
	// Bump the epoch before invalidating so that a concurrent miss that
	// read the block before the write cannot re-cache the stale vector.
	st.epoch.Add(1)
	ts.cache.Remove(id)
	return nil
}
