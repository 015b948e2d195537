package core

import (
	"bufio"
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"weak"

	"bandana/internal/fp16"
	"bandana/internal/nvm"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// imageTestConfig is a store over tables with the update log on, on the mem
// or the file backend (the file backend follows the suite's O_DIRECT leg).
func imageTestConfig(t *testing.T, backend string, tables []*table.Table) Config {
	cfg := Config{
		Backend:           backend,
		Tables:            tables,
		DRAMBudgetVectors: 128,
		Seed:              1,
		UpdateLog:         UpdateLogOptions{Enabled: true},
		IOSched:           IOSchedOptions{Enabled: testIOSchedEnabled()},
	}
	if backend == BackendFile {
		cfg.DataDir = filepath.Join(t.TempDir(), "store")
		cfg.Direct = testDirect()
	}
	return cfg
}

// TestStoreRetainsNoTableCopy pins that the block image is the store's only
// copy of the vectors: once Open has written the caller's table to the
// device, nothing in the store — training, updates, compaction — may keep it
// reachable.
func TestStoreRetainsNoTableCopy(t *testing.T) {
	for _, backend := range []string{BackendMem, BackendFile} {
		t.Run(backend, func(t *testing.T) {
			tables, traces := buildTestTables(t, 1, 1024, 100)
			input := weak.Make(tables[0])
			s, err := Open(imageTestConfig(t, backend, tables))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tables = nil
			if _, err := s.Train(traces, TrainOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := s.UpdateVector(0, 7, testVec(64, 7)); err != nil {
				t.Fatal(err)
			}
			if err := s.CompactDeltas(); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			if input.Value() != nil {
				t.Fatal("the store still references the caller's input table after Open")
			}
			got, err := s.Lookup(0, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !vecsEqual(got, testVec(64, 7)) {
				t.Fatal("compacted update lost")
			}
		})
	}
}

// vectorOracle is the expected fp16 bytes of every vector of every table.
type vectorOracle [][][]byte

func newVectorOracle(tables []*table.Table) vectorOracle {
	o := make(vectorOracle, len(tables))
	for ti, tbl := range tables {
		o[ti] = make([][]byte, tbl.NumVectors())
		for id := range o[ti] {
			raw, _ := tbl.Raw(uint32(id))
			o[ti][id] = append([]byte(nil), raw...)
		}
	}
	return o
}

// check asserts that s serves exactly the oracle's bytes for every vector.
func (o vectorOracle) check(t *testing.T, s *Store, when string) {
	t.Helper()
	for ti, want := range o {
		ids := make([]uint32, len(want))
		for id := range ids {
			ids[id] = uint32(id)
		}
		got, err := s.LookupBatchRaw(ti, ids)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for id := range want {
			if !bytes.Equal(got[id], want[id]) {
				t.Fatalf("%s: table %d vector %d differs from the oracle", when, ti, id)
			}
		}
	}
}

// failingWriter rejects every write: swapped in as the update log's append
// buffer target, it makes the next append fail like a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("injected update log failure") }

// TestRenderedImageEquivalence checks every path that renders a table's
// block image from its current contents — snapshot export, Train, LoadState,
// SHP and k-means relayout migrations, and reopen with log replay — against
// an oracle, with each table's updates split between values already
// compacted into the blocks and values that live only in the delta overlay
// (one of them committed after a failed log append, on the file backend).
func TestRenderedImageEquivalence(t *testing.T) {
	for _, backend := range []string{BackendMem, BackendFile} {
		t.Run(backend, func(t *testing.T) {
			tables, traces := buildTestTables(t, 2, 1024, 200)
			o := newVectorOracle(tables)
			cfg := imageTestConfig(t, backend, tables)
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			var identity bytes.Buffer
			if err := s.SaveState(&identity); err != nil {
				t.Fatal(err)
			}

			tag := uint32(0)
			update := func(ti int, id uint32) {
				t.Helper()
				tag++
				vec := testVec(64, tag)
				if err := s.UpdateVector(ti, id, vec); err != nil {
					t.Fatal(err)
				}
				o[ti][id] = fp16.EncodeSlice(nil, vec)
			}
			// updates leaves 16 updates per table compacted into the blocks
			// and 16 more (over partly the same vectors) in the overlay.
			updates := func() {
				t.Helper()
				for ti := range tables {
					for i := uint32(0); i < 16; i++ {
						update(ti, (i*61+tag)%1024)
					}
				}
				if err := s.CompactDeltas(); err != nil {
					t.Fatal(err)
				}
				for ti := range tables {
					for i := uint32(0); i < 16; i++ {
						update(ti, (i*37+tag)%1024)
					}
				}
				if s.Stats()[0].OverlayEntries == 0 {
					t.Fatal("no update left in the overlay")
				}
			}
			relayout := func(strategy string) {
				t.Helper()
				if err := s.StartAdaptation(AdaptOptions{
					MinQueries:       8,
					RelayoutEvery:    1,
					RelayoutMinGain:  1e-9,
					RelayoutStrategy: strategy,
					SHPIterations:    4,
				}); err != nil {
					t.Fatal(err)
				}
				defer s.StopAdaptation()
				replayTraces(t, s, traces)
				updates()
				rep, err := s.AdaptNow()
				if err != nil {
					t.Fatal(err)
				}
				moved := false
				for _, tr := range rep.Tables {
					moved = moved || tr.Relayout
				}
				if !moved {
					t.Fatalf("%s adaptation migrated no table", strategy)
				}
			}

			updates()
			if backend == BackendFile {
				l := s.deltaLog
				l.mu.Lock()
				l.w = bufio.NewWriterSize(failingWriter{}, 16)
				l.mu.Unlock()
				update(1, 5)
				l.mu.Lock()
				l.w.Reset(l.f) // the failure reset the log; point appends at its file again
				l.mu.Unlock()
				if n := s.UpdateLogStats().FallbackWrites; n != 1 {
					t.Fatalf("update log fallbacks = %d, want 1", n)
				}
			}
			o.check(t, s, "after updates")
			o.check(t, openSnapshotReplica(t, s), "snapshot replica")

			if _, err := s.Train(traces, TrainOptions{SHPIterations: 4}); err != nil {
				t.Fatal(err)
			}
			o.check(t, s, "after Train")

			updates()
			if err := s.LoadState(bytes.NewReader(identity.Bytes())); err != nil {
				t.Fatal(err)
			}
			o.check(t, s, "after LoadState")

			relayout(RelayoutSHP)
			o.check(t, s, "after SHP relayout")

			if err := s.LoadState(bytes.NewReader(identity.Bytes())); err != nil {
				t.Fatal(err)
			}
			relayout(RelayoutKMeans)
			o.check(t, s, "after k-means relayout")

			if backend != BackendFile {
				return
			}
			updates()
			if err := s.Persist(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			cfg.Tables = nil
			if s, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			if s.UpdateLogStats().RecoveredRecords == 0 {
				t.Fatal("reopen replayed no update log records")
			}
			o.check(t, s, "after reopen")
		})
	}
}

// replayTraces serves every query of every table's trace, so an adaptation
// engine has a recorded window to work from.
func replayTraces(t *testing.T, s *Store, traces []*trace.Trace) {
	t.Helper()
	for ti, tr := range traces {
		for _, q := range tr.Queries {
			if len(q) == 0 {
				continue
			}
			if _, err := s.LookupBatch(ti, q); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// errInjectedBulk is the failure faultyStore injects into bulk writes.
var errInjectedBulk = errors.New("injected bulk write failure")

// faultyStore is a MemStore with injectable faults: each of the next
// failBulk bulk writes lands only its first half (a torn write) and fails,
// and unrepaired makes range reads fail the way the file backend does while
// a failed in-place write awaits repair.
type faultyStore struct {
	*nvm.MemStore
	failBulk   atomic.Int32
	unrepaired atomic.Bool
}

func (f *faultyStore) WriteBlocksUnjournaled(base int, src []byte) error {
	if n := f.failBulk.Load(); n > 0 && f.failBulk.CompareAndSwap(n, n-1) {
		if half := len(src) / 2 &^ (nvm.BlockSize - 1); half > 0 {
			_ = f.MemStore.WriteBlocksUnjournaled(base, src[:half])
		}
		return errInjectedBulk
	}
	return f.MemStore.WriteBlocksUnjournaled(base, src)
}

func (f *faultyStore) ReadBlockRange(base int, dst []byte) error {
	if f.unrepaired.Load() {
		return nvm.ErrUnrepairedWrite
	}
	return f.MemStore.ReadBlockRange(base, dst)
}

// TestRewriteFaultsKeepImageConsistent injects device faults into
// whole-table rewrites. A rewrite whose block image cannot be read cleanly
// must not start; a torn rewrite must be rolled back so the published
// layout still matches the blocks; and once the rollback itself fails, no
// later rewrite, state load or export may render from the suspect blocks.
func TestRewriteFaultsKeepImageConsistent(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 1024, 200)
	o := newVectorOracle(tables)
	fs := &faultyStore{MemStore: nvm.NewMemStore(64)}
	dev := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: 64, Store: fs, Seed: 1})
	defer dev.Close()
	cfg := imageTestConfig(t, BackendMem, tables)
	cfg.Device = dev
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tables = nil
	st := s.tables[0]
	var identity bytes.Buffer
	if err := s.SaveState(&identity); err != nil {
		t.Fatal(err)
	}

	tag := uint32(0)
	updates := func(compact bool) {
		t.Helper()
		for i := uint32(0); i < 16; i++ {
			tag++
			vec := testVec(64, tag)
			id := (i*61 + tag) % 1024
			if err := s.UpdateVector(0, id, vec); err != nil {
				t.Fatal(err)
			}
			o[0][id] = fp16.EncodeSlice(nil, vec)
		}
		if compact {
			if err := s.CompactDeltas(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// checkImage compares the blocks plus overlay, bypassing the cache.
	checkImage := func(when string) {
		t.Helper()
		cp, err := s.copyTable(st)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for id, want := range o[0] {
			if got, _ := cp.Raw(uint32(id)); !bytes.Equal(got, want) {
				t.Fatalf("%s: vector %d in the block image differs from the oracle", when, id)
			}
		}
		o.check(t, s, when)
	}
	updates(true)
	updates(false)

	before := st.loadState().layout
	fs.unrepaired.Store(true)
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 4}); !errors.Is(err, nvm.ErrUnrepairedWrite) {
		t.Fatalf("Train over an unrepaired block: err=%v, want ErrUnrepairedWrite", err)
	}
	fs.unrepaired.Store(false)
	if st.loadState().layout != before {
		t.Fatal("a rewrite that could not read its image published a new layout")
	}
	checkImage("after a refused rewrite")

	fs.failBulk.Store(1)
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 4}); !errors.Is(err, errInjectedBulk) {
		t.Fatalf("Train with a torn rewrite: err=%v, want the injected fault", err)
	}
	if st.loadState().layout != before {
		t.Fatal("a failed rewrite published its layout")
	}
	checkImage("after a rolled-back rewrite")

	if _, err := s.Train(traces, TrainOptions{SHPIterations: 4}); err != nil {
		t.Fatal(err)
	}
	if st.loadState().layout == before {
		t.Fatal("Train did not publish a new layout")
	}
	checkImage("after Train")

	updates(false)
	fs.failBulk.Store(2)
	if err := s.LoadState(bytes.NewReader(identity.Bytes())); !errors.Is(err, errRollbackFailed) {
		t.Fatalf("LoadState with a failed rollback: err=%v, want errRollbackFailed", err)
	}
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 4}); !errors.Is(err, errImageSuspect) {
		t.Fatalf("Train after a failed rollback: err=%v, want errImageSuspect", err)
	}
	if err := s.LoadState(bytes.NewReader(identity.Bytes())); !errors.Is(err, errImageSuspect) {
		t.Fatalf("LoadState after a failed rollback: err=%v, want errImageSuspect", err)
	}
	if _, err := s.ExportSnapshot(); !errors.Is(err, errImageSuspect) {
		t.Fatalf("ExportSnapshot after a failed rollback: err=%v, want errImageSuspect", err)
	}
}
