package osd

import (
	"errors"
	"hash/crc32"
	"log"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// Read-repair: when a local read trips a block checksum (store.ErrChecksum
// — the device returned success and garbage), the object still exists
// intact on the other acting replicas. Instead of failing the client, the
// primary fetches the whole object from a clean peer, serves the client
// from the fetched bytes, and queues a fenced local rewrite so the next
// read is clean again. The fetch rides the backfill authority rules: a
// peer that reports itself unclean (mid-backfill) is never a repair
// source, because its copy may predate acknowledged writes.
//
// The local rewrite is a read-modify-write against a moving store, fenced
// exactly like the repair loop's pushes (repair.go): the PG's mutation
// counter is snapshotted BEFORE the flush + fetch, and the final check +
// store submit run on the PG's owning shard goroutine. A client write that
// staged in between moves the counter and the rewrite aborts — the newer
// write owns the bytes (and carries its own fresh checksum), so there is
// nothing left to repair.

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// verifiedRead reads through the backend store and, on a checksum miss,
// repairs from a replica: the returned bytes are the requested range of
// the clean remote copy. Any other error (including repair failure) is
// returned unchanged so the caller's status mapping applies.
func (o *OSD) verifiedRead(pg uint32, oid wire.ObjectID, off uint64, length uint32) ([]byte, error) {
	data, err := o.storeRead(pg, oid, off, length)
	if err == nil || !errors.Is(err, store.ErrChecksum) {
		return data, err
	}
	o.CksumReadErrors.Inc()
	full, ok := o.repairFromReplica(pg, oid)
	if !ok {
		return nil, err // no clean source: surface the checksum error
	}
	return rangeOf(full, off, length), nil
}

// rangeOf cuts [off, off+length) out of a whole-object image; bytes past
// the object's end read as zero (thin-provisioned tail), matching the
// store's own short-read semantics for pre-allocated objects.
func rangeOf(full []byte, off uint64, length uint32) []byte {
	out := make([]byte, length)
	if off < uint64(len(full)) {
		copy(out, full[off:])
	}
	return out
}

// repairFromReplica fetches oid's whole content from the first clean
// acting peer and, on success, queues the fenced local rewrite. Returns
// the fetched image. Safe to call from non-priority workers and the scrub
// loop; never from a shard goroutine (the rewrite handoff would deadlock
// behind the caller).
func (o *OSD) repairFromReplica(pg uint32, oid wire.ObjectID) ([]byte, bool) {
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		return nil, false
	}
	// Snapshot the fence BEFORE flushing and fetching (see repair.go): the
	// rewrite is only installable while no write staged since.
	mutSnap := pgs.muts.Load()
	if o.cfg.Mode.usesOplog() && pgs.log != nil {
		if err := o.flushPG(pgs); err != nil {
			return nil, false
		}
	}
	return o.repairCore(pg, pgs, oid, mutSnap)
}

// repairCore is repairFromReplica minus the flush: callers already holding
// s.flushMu (the logged-read waiter path runs mid-flush) enter here with
// their own fence snapshot.
func (o *OSD) repairCore(pg uint32, pgs *pgState, oid wire.ObjectID, mutSnap uint64) ([]byte, bool) {
	if len(o.shards) == 0 {
		return nil, false // the fenced rewrite needs the sharded top half
	}
	m := o.Map()
	if m == nil {
		return nil, false
	}
	acting, err := m.MapPG(pg)
	if err != nil {
		return nil, false
	}
	// The muts fence proves no mutation staged AFTER the snapshot; it
	// cannot prove the peers have RECEIVED everything staged before it.
	// A fan-out still in flight at fetch time means the fetched image may
	// predate an acknowledged write, and installing it would overwrite
	// the newer local bytes — served cleanly on the next read, a silent
	// lost write. Wait for the staged fan-outs to drain before fetching.
	// If the PG never goes quiet, the fetch is still safe to SERVE (every
	// write ACKed before the triggering read arrived is already in the
	// peer's log, which the pull flushes), but not to install.
	quiet := waitReplQuiet(pgs, time.Second)
	for _, id := range acting {
		if id == o.cfg.ID {
			continue
		}
		data, ok := o.fetchObject(m, id, pg, oid)
		if !ok {
			continue
		}
		log.Printf("osd %d: pg %d read-repair %s from osd %d (%d bytes)",
			o.cfg.ID, pg, oid, id, len(data))
		if quiet {
			o.installRepair(pg, pgs, oid, data, mutSnap)
		}
		return data, true
	}
	return nil, false
}

// waitReplQuiet polls until every fan-out staged on the PG has completed
// (acked by all peers or failed into the repair queue). Returns false on
// timeout — a PG under constant writes may never drain, and the caller
// degrades to serve-only.
func waitReplQuiet(pgs *pgState, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for pgs.replPend.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// fetchObject pulls one whole object from peer. ok only when the peer is
// clean AND its own verified read succeeded — a Bad object means the
// peer's copy is rotten too.
func (o *OSD) fetchObject(m *crush.Map, peer uint32, pg uint32, oid wire.ObjectID) ([]byte, bool) {
	pull, ok := o.dialPull(m, peer)
	if !ok {
		return nil, false
	}
	defer pull.Close()
	chunk, ok := pull.pgPull(wire.PGPull{PG: pg, Depth: wire.DepthData, OID: oid})
	if !ok || len(chunk.Objects) != 1 || chunk.Objects[0].Bad {
		return nil, false
	}
	return chunk.Objects[0].Data, true
}

// installRepair hands the local rewrite to the PG's owning shard
// goroutine, where it is atomic against client writes: either the fence
// holds (no mutation staged since the fetch) and the clean bytes land, or
// a newer write moved the counter and the rewrite aborts. The handoff runs
// on its own goroutine so a worker already holding queue slots can never
// deadlock against a full shard channel.
func (o *OSD) installRepair(pg uint32, pgs *pgState, oid wire.ObjectID, data []byte, mutSnap uint64) {
	o.group.Go(func(stop <-chan struct{}) {
		o.toShard(shardReq{pg: pg, fn: func() {
			if pgs.muts.Load() != mutSnap {
				return // a newer write owns the bytes; nothing to repair
			}
			txn := &store.Transaction{}
			txn.AddWrite(pg, oid, 0, data)
			if err := o.st.Submit(txn); err != nil {
				log.Printf("osd %d: pg %d read-repair install %s: %v", o.cfg.ID, pg, oid, err)
				return
			}
			if o.rcache != nil {
				o.rcache.Invalidate(pg, oid)
			}
			o.ScrubRepairs.Inc()
		}})
	})
}
