package core

import (
	"errors"
	"fmt"

	"bandana/internal/layout"
	"bandana/internal/nvm"
	"bandana/internal/table"
)

// This file is the rewrite layer: every path that changes which bytes live
// in a table's NVM block range. Both kinds of rewrite render the new image
// from the table's current one — its block range read back from the device
// with the delta overlay patched in (readTableImage) — because the store
// keeps no other copy of the vectors. Whole-table rewrites (rewriteTable)
// hold the table's rewrite lock while publishing the layout and writing the
// blocks and are crash-protected by the rewrite.dirty marker; live
// background migrations (relayoutTable) stage the new image first and hold
// the lock only while copying it into place, with their own recoverable
// commit protocol (see migration.go).

// writeTables writes the caller's input tables to their block ranges in the
// identity layout buildStore published — the initial load of Open. It is
// the only place the store reads a *table.Table; afterwards the block image
// (plus the delta overlay) is the only copy of the vectors. The initial
// load is not block-wise crash-atomic anyway (the manifest is the commit
// point), so it takes the unjournaled bulk path.
func (s *Store) writeTables(tables []*table.Table) error {
	for i, t := range tables {
		st := s.tables[i]
		// The identity layout only names IDs of t, so Raw cannot fail.
		vec := func(id uint32) []byte { raw, _ := t.Raw(id); return raw }
		if err := s.writeImage(st, st.loadState().layout, vec); err != nil {
			return fmt.Errorf("core: table %q: %w", st.name, err)
		}
	}
	return nil
}

// imageChunkBlocks bounds the buffer writeImage renders into: 1 MiB of
// blocks per bulk write.
const imageChunkBlocks = 256

// writeImage renders st's block image under layout l, taking each vector's
// bytes from vec, and writes it to the table's block range through the
// unjournaled bulk path one imageChunkBlocks chunk at a time, so a load or
// rewrite holds one chunk of the new image rather than all of it.
func (s *Store) writeImage(st *storeTable, l *layout.Layout, vec func(uint32) []byte) error {
	buf := nvm.AlignedBytes(min(st.numBlocks, imageChunkBlocks) * nvm.BlockSize)
	for b := 0; b < st.numBlocks; b += imageChunkBlocks {
		chunk := buf[:min(imageChunkBlocks, st.numBlocks-b)*nvm.BlockSize]
		clear(chunk)
		renderBlocks(chunk, st, l, b, vec)
		if err := s.device.WriteBlocksBulk(st.blockBase+b, chunk); err != nil {
			return err
		}
	}
	return nil
}

// renderImage renders st's full block image under layout l, taking each
// vector's bytes from vec; slots without a vector stay zero.
func renderImage(st *storeTable, l *layout.Layout, vec func(uint32) []byte) []byte {
	img := nvm.AlignedBytes(st.numBlocks * nvm.BlockSize)
	renderBlocks(img, st, l, 0, vec)
	return img
}

// renderBlocks renders blocks [first, first+len(dst)/BlockSize) of st's
// image under layout l into the zeroed dst.
func renderBlocks(dst []byte, st *storeTable, l *layout.Layout, first int, vec func(uint32) []byte) {
	var members []uint32
	for b := 0; b < len(dst)/nvm.BlockSize; b++ {
		members = l.BlockMembers(first+b, members[:0])
		for slot, id := range members {
			copy(dst[b*nvm.BlockSize+slot*st.vecBytes:], vec(id))
		}
	}
}

// tableImage is one table's current contents: its block range as read from
// the device, with every overlaid (not yet compacted) value patched into its
// slot under the layout the blocks were read through.
type tableImage struct {
	img      []byte
	layout   *layout.Layout
	vecBytes int
}

// raw returns id's bytes inside the image.
func (ti *tableImage) raw(id uint32) []byte {
	off := ti.layout.BlockOf(id)*nvm.BlockSize + ti.layout.SlotOf(id)*ti.vecBytes
	return ti.img[off : off+ti.vecBytes]
}

// readTableImage reads st's block range into dst (st.numBlocks blocks; nil
// allocates an aligned buffer) in one contiguous read and patches the
// overlay over it. The caller must hold s.compactMu and st.updateMu: with
// both held no update, compaction or rewrite can change the blocks or the
// overlay between the read and the patch. The read bypasses the serving
// block-read counters. It refuses to run once a failed rollback has left
// the blocks suspect (errImageSuspect), and the file backend refuses it
// while a failed in-place write into the range awaits repair
// (nvm.ErrUnrepairedWrite): a rewrite rendered from such a read would make
// torn bytes permanent.
func (s *Store) readTableImage(st *storeTable, dst []byte) (*tableImage, error) {
	if err := s.checkImage(); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = nvm.AlignedBytes(st.numBlocks * nvm.BlockSize)
	}
	if err := s.device.ReadBlocksBulk(st.blockBase, dst); err != nil {
		return nil, fmt.Errorf("core: table %q: read image: %w", st.name, err)
	}
	ti := &tableImage{img: dst, layout: st.loadState().layout, vecBytes: st.vecBytes}
	if st.overlay != nil {
		for id, e := range st.overlay.snapshot() {
			copy(ti.raw(id), e.raw)
		}
	}
	return ti, nil
}

// copyTable copies st's current vectors into a standalone table — for
// computations that want the whole table in memory (k-means relayout). The
// copy is the caller's; the store keeps no reference to it.
func (s *Store) copyTable(st *storeTable) (*table.Table, error) {
	s.compactMu.Lock()
	st.updateMu.Lock()
	cur, err := s.readTableImage(st, nil)
	st.updateMu.Unlock()
	s.compactMu.Unlock()
	if err != nil {
		return nil, err
	}
	t := table.New(st.name, st.numVectors, st.dim)
	for id := uint32(0); int(id) < st.numVectors; id++ {
		if err := t.SetRaw(id, cur.raw(id)); err != nil {
			return nil, fmt.Errorf("core: table %q: %w", st.name, err)
		}
	}
	return t, nil
}

// rewriteTable atomically installs a state mutation (a new layout, plus
// whatever else mutate sets) and rewrites the table's NVM block range to
// match it. The table's current contents come from its block image and
// overlay (readTableImage), read under compactMu and updateMu, which stay
// held for the whole rewrite so neither an update nor a compaction can slip
// between the read and the write. Holding the store-wide compactMu also
// means the per-table rewrites of a parallel Train run one after another
// (partitioning still runs in parallel). Miss-path block reads are
// excluded (rewriteMu) while the new image is written and published, so
// the serving path never decodes a block with the wrong layout.
//
// The new image is written before mutate is published, and a failed write
// is rolled back by writing the current image back, so the published
// layout always matches the blocks. If the rollback fails too, the blocks
// are suspect: the store refuses further image reads (checkImage), and on
// the file backend the rewrite marker, which Train and LoadState keep on
// this path, makes the data dir refuse to reopen.
//
// Memory: the rewrite holds the table's current image (the render source:
// a new block takes its vectors from anywhere in the old image) plus one
// imageChunkBlocks chunk of the new one.
func (s *Store) rewriteTable(st *storeTable, mutate func(*tableState)) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	st.updateMu.Lock()
	defer st.updateMu.Unlock()
	cur, err := s.readTableImage(st, nil)
	if err != nil {
		return err
	}
	next := *st.loadState()
	mutate(&next)
	st.rewriteMu.Lock()
	defer st.rewriteMu.Unlock()
	st.epoch.Add(1)
	defer st.epoch.Add(1)
	if err = s.writeImage(st, next.layout, cur.raw); err != nil {
		err = fmt.Errorf("core: table %q: %w", st.name, err)
		if rerr := s.device.WriteBlocksBulk(st.blockBase, cur.img); rerr != nil {
			s.imageSuspect.Store(true)
			return errors.Join(err, fmt.Errorf("%w: table %q: %v", errRollbackFailed, st.name, rerr))
		}
	} else {
		st.mutateState(mutate)
	}
	if st.overlay != nil {
		// Whichever image landed has every overlaid value patched in: the
		// overlay has nothing left to shadow.
		st.overlay.clear()
	}
	return err
}

// relayoutTable migrates one table to a new physical layout while the store
// keeps serving — the zero-downtime counterpart of rewriteTable:
//
//   - the new image is built (and, on the file backend, staged durably with
//     a committed migration record — see migration.go) WITHOUT the rewrite
//     lock, so concurrent misses keep reading blocks throughout;
//   - only the final copy-into-place holds the rewrite lock exclusively,
//     and it is one contiguous bulk write;
//   - cache hits are never blocked at any point, and cached vectors stay
//     valid across the swap (the cache is keyed by vector ID, which a
//     layout change does not alter).
//
// Vector updates and compactions are excluded for the whole migration
// (updateMu, compactMu) so the staged image cannot go stale. Callers must
// hold s.mutateMu: the staging protocol supports one migration at a time.
//
// Memory: the migration materializes the table's current and new block
// images in RAM (the new one is also what gets staged to disk); at very
// large table sizes a streaming variant (incremental CRC into migration.img,
// chunked copy-in) would bound this to a few MB — the protocol does not
// depend on the images being resident.
func (s *Store) relayoutTable(st *storeTable, newLayout *layout.Layout) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	st.updateMu.Lock()
	defer st.updateMu.Unlock()

	cur, err := s.readTableImage(st, nil)
	if err != nil {
		return err
	}
	img := renderImage(st, newLayout, cur.raw)
	if s.dataDir != "" {
		if err := s.stageMigration(st, newLayout, img); err != nil {
			return err
		}
		migrationStage("staged")
	}
	if err := s.installLayout(st, newLayout, img, cur.img); err != nil {
		// A failed rollback may have left a torn image: keep the committed
		// record, which the next open redoes exactly. Otherwise the rollback
		// restored the old bytes, so the record must not survive to
		// re-apply an abandoned layout at the next open.
		if s.dataDir != "" && !errors.Is(err, errRollbackFailed) {
			if cerr := s.clearMigration(); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
		return err
	}
	migrationStage("installed")
	if s.dataDir != "" {
		if err := s.Persist(); err != nil {
			return fmt.Errorf("core: persist migrated state: %w", err)
		}
		migrationStage("persisted")
		if err := s.clearMigration(); err != nil {
			return err
		}
	}
	return nil
}

// errRollbackFailed marks a whole-table rewrite or migration whose write
// AND rollback both failed: the table's on-NVM bytes are suspect. Only the
// next open can repair them — a migration by redoing its staged record, a
// Train or LoadState not at all (the rewrite marker makes the data dir
// refuse to reopen).
var errRollbackFailed = errors.New("core: rollback failed")

// errImageSuspect is returned by every path that would read a table's block
// image (rewrites, migrations, snapshot export) after a failed rollback.
var errImageSuspect = errors.New("core: table blocks are suspect after a failed rollback; whole-table rewrites, migrations and exports are disabled until the store is reopened")

// checkImage refuses image reads once a failed rollback left some table's
// blocks suspect: a rewrite rendered from them would make the damage
// permanent.
func (s *Store) checkImage() error {
	if s.imageSuspect.Load() {
		return errImageSuspect
	}
	return nil
}

// installLayout copies the new block image into place and then publishes
// newLayout, all under the table's exclusive rewrite lock — the only window
// in which concurrent misses wait. The copy strictly precedes the publish,
// and a failed copy is rolled back by writing back oldImg, the table's
// current image under the published layout (the caller holds updateMu and
// compactMu, so it cannot go stale), so on every exit the published layout
// matches the bytes on NVM — a partial bulk write never serves mis-mapped
// vectors. If even the rollback write fails the storage is genuinely
// broken; the joined error propagates, image reads are refused from then
// on (checkImage) and, on the file backend, the committed migration record
// redoes the copy exactly at the next open. The epoch bump keeps in-flight
// misses that decoded under the old layout from caching stale vectors.
func (s *Store) installLayout(st *storeTable, newLayout *layout.Layout, img, oldImg []byte) error {
	st.rewriteMu.Lock()
	defer st.rewriteMu.Unlock()
	st.epoch.Add(1)
	defer st.epoch.Add(1)
	err := s.device.WriteBlocksBulk(st.blockBase, img)
	if err == nil {
		err = s.device.Flush()
	}
	if err != nil {
		err = fmt.Errorf("core: table %q migration copy: %w", st.name, err)
		if rerr := s.device.WriteBlocksBulk(st.blockBase, oldImg); rerr != nil {
			s.imageSuspect.Store(true)
			return errors.Join(err, fmt.Errorf("%w: table %q: %v", errRollbackFailed, st.name, rerr))
		}
		if st.overlay != nil {
			// The rollback image has every overlaid value patched in. (On
			// a FAILED rollback the overlay is kept: the on-NVM bytes are
			// suspect and the overlay still shadows the freshest values for
			// serving.)
			st.overlay.clear()
		}
		return err
	}
	st.mutateState(func(ts *tableState) {
		ts.layout = newLayout
	})
	if st.overlay != nil {
		// Same as rewriteTable: img has every overlaid value patched in, so
		// the overlay is subsumed.
		st.overlay.clear()
	}
	return nil
}
