// Snapshot-replication endpoints: a primary (or any node — a read-only
// replica can feed further replicas) streams its committed store image to
// followers.
//
//	GET /v1/replica/seq
//	    {"seq": N, "readOnly": false}
//
//	GET /v1/replica/snapshot?part=manifest|state|blocks[&seq=N][&offset=O][&limit=L]
//	    application/octet-stream chunk of the requested part, with headers
//	        X-Bandana-Seq          seq the export was built at
//	        X-Bandana-Part-Len     total byte length of the part
//	        X-Bandana-Part-Crc32c  CRC-32C of the whole part
//	        X-Bandana-Chunk-Crc32c CRC-32C of this response's bytes
//	    offset/limit slice the part for resumable chunked downloads; a
//	    request whose ?seq no longer matches the store's current seq gets
//	    409 Conflict with the new seq in the body, telling the replica to
//	    restart its sync against the newer image.
//
// The export is built at most once per seq (cached) from the store's block
// image and delta overlay under the migration-staging locks, so it is
// crash-consistent by construction and serving is never blocked.
package server

import (
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"

	"bandana/internal/core"
)

// Replica-stream header names (canonical form).
const (
	HeaderSeq       = "X-Bandana-Seq"
	HeaderPartLen   = "X-Bandana-Part-Len"
	HeaderPartCRC   = "X-Bandana-Part-Crc32c"
	HeaderChunkCRC  = "X-Bandana-Chunk-Crc32c"
	snapshotMaxRead = 8 << 20 // cap one chunk response at 8 MB
)

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

type replicaSeqResponse struct {
	Seq      uint64 `json:"seq"`
	ReadOnly bool   `json:"readOnly"`
}

func (s *Server) handleReplicaSeq(w http.ResponseWriter, r *http.Request) {
	store := s.store(r)
	writeJSON(w, http.StatusOK, replicaSeqResponse{Seq: store.SnapshotSeq(), ReadOnly: store.ReadOnly()})
}

// exportFor returns a snapshot of the store's current image, reusing the
// cached export when its seq is still current so a replica downloading a
// large block image in many chunks triggers exactly one image build.
func (s *Server) exportFor(store *core.Store) (*core.Snapshot, error) {
	s.exportMu.Lock()
	defer s.exportMu.Unlock()
	// The cache must be keyed by the store's identity as well as its seq: a
	// replica's SwapStore installs a different store object, and nothing
	// guarantees its seq differs from the swapped-out one's.
	if s.export != nil && s.exportStore == store && s.export.Seq == store.SnapshotSeq() {
		return s.export, nil
	}
	snap, err := store.ExportSnapshot()
	if err != nil {
		return nil, err
	}
	s.export = snap
	s.exportStore = store
	return snap, nil
}

func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	store := s.store(r)
	q := r.URL.Query()
	part := q.Get("part")
	// A stale ?seq means the replica is mid-download of an image this node
	// no longer has: answer 409 with the current seq so it restarts cleanly
	// instead of stitching chunks of two different images together. Checked
	// against the live seq BEFORE any export work — under steady write
	// traffic a doomed chunk request must not stall writers by rebuilding
	// an O(image) export just to be told "restart".
	wantSeq := uint64(0)
	if want := q.Get("seq"); want != "" {
		var perr error
		if wantSeq, perr = strconv.ParseUint(want, 10, 64); perr != nil {
			writeError(w, http.StatusBadRequest, "invalid seq %q", want)
			return
		}
		if cur := store.SnapshotSeq(); wantSeq != cur {
			w.Header().Set(HeaderSeq, strconv.FormatUint(cur, 10))
			writeError(w, http.StatusConflict, "snapshot seq advanced to %d (requested %d); restart the sync", cur, wantSeq)
			return
		}
	}
	snap, err := s.exportFor(store)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "export snapshot: %v", err)
		return
	}
	// Re-check against the export actually served: the seq can advance
	// between the cheap pre-check and the export build.
	if wantSeq != 0 && wantSeq != snap.Seq {
		w.Header().Set(HeaderSeq, strconv.FormatUint(snap.Seq, 10))
		writeError(w, http.StatusConflict, "snapshot seq advanced to %d (requested %d); restart the sync", snap.Seq, wantSeq)
		return
	}

	var payload []byte
	switch part {
	case "manifest":
		payload = snap.Manifest
	case "state":
		payload = snap.State
	case "blocks":
		payload = snap.Blocks
	default:
		writeError(w, http.StatusBadRequest, "unknown part %q (want manifest, state or blocks)", part)
		return
	}

	offset, limit := int64(0), int64(snapshotMaxRead)
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.ParseInt(v, 10, 64); err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "invalid offset %q", v)
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.ParseInt(v, 10, 64); err != nil || limit <= 0 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
	}
	if limit > snapshotMaxRead {
		limit = snapshotMaxRead
	}
	if offset > int64(len(payload)) {
		writeError(w, http.StatusRequestedRangeNotSatisfiable, "offset %d beyond part length %d", offset, len(payload))
		return
	}
	end := offset + limit
	if end > int64(len(payload)) {
		end = int64(len(payload))
	}
	chunk := payload[offset:end]

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderSeq, strconv.FormatUint(snap.Seq, 10))
	h.Set(HeaderPartLen, strconv.FormatInt(int64(len(payload)), 10))
	partCRC := snap.BlocksCRC
	if part != "blocks" {
		partCRC = crc32.Checksum(payload, snapshotCRCTable)
	}
	h.Set(HeaderPartCRC, fmt.Sprintf("%08x", partCRC))
	h.Set(HeaderChunkCRC, fmt.Sprintf("%08x", crc32.Checksum(chunk, snapshotCRCTable)))
	h.Set("Content-Length", strconv.Itoa(len(chunk)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(chunk)

	// The final blocks chunk ends a replica's download: drop the cached
	// export so a full copy of the device image does not sit on the heap
	// between (rare) bootstraps. A concurrent second replica mid-download
	// just rebuilds the same-seq export on its next chunk.
	if part == "blocks" && end == int64(len(payload)) {
		s.exportMu.Lock()
		if s.export == snap {
			s.export, s.exportStore = nil, nil
		}
		s.exportMu.Unlock()
	}
}
