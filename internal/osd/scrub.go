package osd

import (
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// The scrub daemon is the proactive half of the integrity story: checksums
// catch rot the moment a client reads a block, but cold data can sit
// rotten for months before any client touches it — by which time the other
// replicas may have rotted too. Scrub walks every PG this OSD leads and
// cross-checks the replicas while clean copies still exist.
//
// Two depths, as in Ceph:
//
//   - Light scrub compares object SETS and metadata (existence, size)
//     across replicas. Cheap — no data reads — so it can run often.
//   - Deep scrub additionally reads every object back through the
//     checksum-verified path on every replica and compares whole-object
//     CRCs, catching silent divergence that metadata cannot see.
//
// Divergent or locally-rotten objects are queued on the repair loop
// (noteRepair pushes the primary's current state, re-fencing internally);
// objects the PRIMARY itself cannot read cleanly are repaired from a clean
// replica first (repairFromReplica). All per-object work is paced through
// a dedicated qos token bucket (ScrubRate obj/s) so a deep scrub trickles
// along under client traffic instead of competing with it.
//
// Races with client writes are tolerated, not locked out: each PG's
// comparison runs against a mutation-counter snapshot, and if a write
// staged mid-scrub the PG's findings are discarded (skipped, not failed) —
// next pass re-checks it. Scrub must never "repair" an object that a
// concurrent write legitimately changed under it.

// ScrubNow runs one synchronous scrub pass over every PG this OSD
// currently leads. Deep scrubs verify data checksums on all replicas.
// Returns the number of divergences found (also counted in ScrubErrors).
func (o *OSD) ScrubNow(deep bool) int {
	return o.scrubPass(deep)
}

// scrubLoop is the background daemon: a light scrub every ScrubInterval,
// every fourth pass deep.
func (o *OSD) scrubLoop(stop <-chan struct{}) {
	tick := time.NewTicker(o.cfg.ScrubInterval)
	defer tick.Stop()
	pass := 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			pass++
			o.scrubPass(pass%4 == 0)
		}
	}
}

// scrubPass walks the PGs this OSD leads. Serialized: overlapping passes
// would double-count and double-repair.
func (o *OSD) scrubPass(deep bool) int {
	o.scrubMu.Lock()
	defer o.scrubMu.Unlock()
	m := o.Map()
	if m == nil || !o.cfg.Mode.usesOplog() {
		return 0
	}
	found := 0
	for pg := uint32(0); pg < m.PGCount; pg++ {
		acting, err := m.MapPG(pg)
		if err != nil || len(acting) == 0 || acting[0] != o.cfg.ID {
			continue // scrub is primary-driven, like repair
		}
		found += o.scrubPG(m, pg, acting, deep)
	}
	o.ScrubPasses.Inc()
	o.lastScrub.Store(time.Now().UnixNano())
	return found
}

// scrubPG cross-checks one PG. Returns divergences found (0 when the PG
// was skipped: unclean, mid-backfill, or raced by a client write).
func (o *OSD) scrubPG(m *crush.Map, pg uint32, acting []uint32, deep bool) int {
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		return 0
	}
	pgs.mu.Lock()
	clean := pgs.clean
	pgs.mu.Unlock()
	if !clean {
		return 0 // backfill owns the PG; scrubbing half-synced data is noise
	}
	// Fence BEFORE the flush: any write staged after this instant
	// invalidates the pass's comparisons (same ordering as repair.go).
	mutSnap := pgs.muts.Load()
	if pgs.log != nil {
		if err := o.flushPG(pgs); err != nil {
			return 0
		}
	}
	// The muts fence cannot see a fan-out still in flight: a write staged
	// BEFORE the snapshot but not yet received by a replica makes that
	// replica's pulled view legitimately older than the local walk — a
	// spurious divergence (and a wasted repair push). Wait for the staged
	// fan-outs to drain before pulling; a PG that never goes quiet is
	// skipped and re-checked next pass.
	if !waitReplQuiet(pgs, time.Second) {
		return 0
	}

	// Accumulate each replica's full object view. Replica sets may differ —
	// that is precisely what scrub detects — so the views are collected
	// whole (chunked pulls) and compared as maps, not walked in lockstep.
	type remoteView struct {
		id   uint32
		objs map[store.Key]wire.PGObject
	}
	var remotes []remoteView
	for _, id := range acting[1:] {
		objs, ok := o.scrubPullAll(m, id, pg, deep)
		if !ok {
			return 0 // replica unreachable or unclean: retry next pass
		}
		remotes = append(remotes, remoteView{id: id, objs: objs})
	}

	// Walk the local (authoritative) object set in chunks, paced.
	found := 0
	local := make(map[store.Key]bool)
	var cursor store.Key
	for {
		infos, last, done, err := o.st.ListPG(pg, cursor, 32)
		if err != nil {
			return found
		}
		for _, info := range infos {
			o.scrubLim.Wait("scrub", 1)
			if pgs.muts.Load() != mutSnap {
				return found // raced by a write; findings so far stand, rest skipped
			}
			o.ScrubObjects.Inc()
			key := store.MakeKey(pg, info.OID)
			local[key] = true

			var localCRC uint32
			if deep {
				data, rerr := o.st.Read(pg, info.OID, 0, uint32(info.Size))
				if errors.Is(rerr, store.ErrChecksum) {
					// The primary's own copy is rotten: repair it from a
					// replica before using it as the comparison baseline.
					o.CksumReadErrors.Inc()
					o.ScrubErrors.Inc()
					found++
					log.Printf("osd %d: pg %d deep scrub: local checksum error on %s",
						o.cfg.ID, pg, info.OID)
					if fixed, ok := o.repairFromReplica(pg, info.OID); ok {
						data = fixed
					} else {
						continue
					}
				} else if rerr != nil {
					continue
				}
				localCRC = crc32.Checksum(data, crcTab)
			}

			for _, r := range remotes {
				robj, ok := r.objs[key]
				// Versions are NOT compared: the store's version is a local
				// mutation counter, and backfill/read-repair legitimately
				// desynchronize it across replicas. It ships in PGObject
				// for diagnostics only.
				diverged := ""
				switch {
				case !ok:
					diverged = "missing"
				case robj.Bad:
					diverged = "checksum error"
				case robj.Size != info.Size:
					diverged = fmt.Sprintf("size %d != %d", robj.Size, info.Size)
				case deep && robj.CRC != localCRC:
					diverged = fmt.Sprintf("crc %08x != %08x", robj.CRC, localCRC)
				}
				if diverged == "" {
					continue
				}
				o.ScrubErrors.Inc()
				found++
				log.Printf("osd %d: pg %d %s scrub: %s diverges on osd %d: %s",
					o.cfg.ID, pg, scrubKind(deep), info.OID, r.id, diverged)
				// noteRepair pushes the primary's CURRENT state with its own
				// internal fence — safe even if a write lands meanwhile.
				o.noteRepair(pg, info.OID)
				break
			}
		}
		cursor = last
		if done {
			break
		}
	}

	// Replica-only objects: present remotely, gone locally. The repair
	// push replays the primary's state — a Delete — to every replica.
	for _, r := range remotes {
		for key, robj := range r.objs {
			if local[key] {
				continue
			}
			if pgs.muts.Load() != mutSnap {
				return found
			}
			o.ScrubErrors.Inc()
			found++
			log.Printf("osd %d: pg %d scrub: %s exists only on osd %d",
				o.cfg.ID, pg, robj.OID, r.id)
			o.noteRepair(pg, robj.OID)
		}
	}
	return found
}

func scrubKind(deep bool) string {
	if deep {
		return "deep"
	}
	return "light"
}

// scrubPullAll collects one replica's complete object view for a PG. ok
// is false when the replica is unreachable, unclean, or errored — the
// pass skips the PG rather than mis-diagnosing it.
func (o *OSD) scrubPullAll(m *crush.Map, peer uint32, pg uint32, deep bool) (map[store.Key]wire.PGObject, bool) {
	pull, ok := o.dialPull(m, peer)
	if !ok {
		return nil, false
	}
	defer pull.Close()
	depth := wire.DepthMeta
	if deep {
		depth = wire.DepthCRC
	}
	objs := make(map[store.Key]wire.PGObject)
	ok = pull.walk(pg, depth, func(chunk []wire.PGObject) bool {
		o.scrubLim.Wait("scrub", 1) // pace the remote's reads too
		for _, obj := range chunk {
			objs[store.MakeKey(pg, obj.OID)] = obj
		}
		return true
	})
	return objs, ok
}
