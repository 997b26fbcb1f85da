package osd

import (
	"errors"
	"hash/crc32"

	"rebloc/internal/crush"
	"rebloc/internal/messenger"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// The object-level pull protocol. Backfill (paper step ⑦), scrub and
// read-repair all read a peer's copy of a PG through one message pair,
// wire.PGPull/PGChunk, served by servePGPull and pulled over a pullConn.
// They differ only in depth: scrub walks at DepthMeta (light) or DepthCRC
// (deep), backfill walks at DepthData, and read-repair fetches one object
// at DepthData. The recovery probe (OplogPull/OplogChunk) rides the same
// connection.

// pullChunkMax is the object count a cursor walk asks for per PGPull.
const pullChunkMax = 32

// pullConn is a dedicated lockstep connection to one peer: the peer
// conn's recv loop would swallow the replies.
type pullConn struct {
	o    *OSD
	conn messenger.Conn
	rid  uint64
}

// dialPull opens a pull connection to peer; the caller must Close it. The
// conn is tracked for teardown: its lockstep Recv can block forever when
// the source dies (or the network eats the reply), and a stop has no
// other handle to unblock the puller.
func (o *OSD) dialPull(m *crush.Map, peer uint32) (*pullConn, bool) {
	info, ok := m.OSDs[peer]
	if !ok {
		return nil, false
	}
	conn, err := o.cfg.Transport.Dial(info.Addr)
	if err != nil {
		return nil, false
	}
	if !o.aux.Add(conn) {
		conn.Close()
		return nil, false
	}
	return &pullConn{o: o, conn: conn}, true
}

// Close releases the connection.
func (p *pullConn) Close() {
	p.o.aux.Remove(p.conn)
	p.conn.Close()
}

// roundTrip sends req, which carries the current ReqID, and returns the
// reply with that ID (nil on a conn error). At-least-once delivery (a
// faulty or reconnecting network) can replay an earlier reply; consuming
// it as the answer to the current request would shift the lockstep
// protocol off by one for the rest of the pull.
func (p *pullConn) roundTrip(req wire.Message) wire.Message {
	if err := p.conn.Send(req); err != nil {
		return nil
	}
	for {
		msg, err := p.conn.Recv()
		if err != nil {
			return nil
		}
		switch m := msg.(type) {
		case *wire.OplogChunk:
			if m.ReqID == p.rid {
				return m
			}
		case *wire.PGChunk:
			if m.ReqID == p.rid {
				return m
			}
		}
	}
}

// oplog probes the source's authority for pg and pulls its staged op-log
// suffix (recovery step ⑥a).
func (p *pullConn) oplog(pg uint32) (*wire.OplogChunk, bool) {
	p.rid++
	c, ok := p.roundTrip(&wire.OplogPull{ReqID: p.rid, PG: pg}).(*wire.OplogChunk)
	return c, ok && c.Status == wire.StatusOK
}

// pgPull sends one PGPull. ok only for a StatusOK chunk from a source
// that serves the PG clean.
func (p *pullConn) pgPull(req wire.PGPull) (*wire.PGChunk, bool) {
	p.rid++
	req.ReqID = p.rid
	c, ok := p.roundTrip(&req).(*wire.PGChunk)
	return c, ok && c.Status == wire.StatusOK && c.Clean
}

// walk pulls every object of pg at depth, handing each chunk's objects to
// fn in key order; fn returning false abandons the walk. ok only when the
// walk reached the end of the PG.
func (p *pullConn) walk(pg uint32, depth wire.PullDepth, fn func([]wire.PGObject) bool) bool {
	req := wire.PGPull{PG: pg, Max: pullChunkMax, Depth: depth}
	for {
		c, ok := p.pgPull(req)
		if !ok || !fn(c.Objects) {
			return false
		}
		if c.Done {
			return true
		}
		req.Cursor = c.Next
	}
}

// servePGPull answers every PGPull shape.
func (o *OSD) servePGPull(conn messenger.Conn, msg *wire.PGPull) {
	reply := &wire.PGChunk{ReqID: msg.ReqID, PG: msg.PG}
	reply.Status = o.fillPGChunk(msg, reply)
	if reply.Status != wire.StatusOK {
		reply.Objects = nil
	}
	_ = conn.Send(reply)
}

// fillPGChunk builds a PGPull's answer and returns its status.
func (o *OSD) fillPGChunk(msg *wire.PGPull, reply *wire.PGChunk) wire.Status {
	// The authority rule: objects ship only from a PG this OSD knows and
	// serves clean. A half-synced store must never become a backfill or
	// repair source, and the puller's probe cannot rule out a map change
	// that dirtied the PG since.
	o.pgMu.Lock()
	s, ok := o.pgs[msg.PG]
	o.pgMu.Unlock()
	if ok {
		s.mu.Lock()
		reply.Clean = s.clean
		s.mu.Unlock()
	}
	if !reply.Clean {
		return wire.StatusAgain
	}
	// A pull must not miss staged data.
	if s.log != nil {
		if err := o.flushPG(s); err != nil {
			return wire.StatusIOError
		}
	}
	if msg.OID.Name != "" {
		reply.Done = true
		return o.addPGObject(reply, msg.PG, msg.OID, msg.Depth)
	}
	max := int(msg.Max)
	if max <= 0 || max > 256 {
		max = pullChunkMax
	}
	infos, last, done, err := o.st.ListPG(msg.PG, store.Key(msg.Cursor), max)
	if err != nil {
		return wire.StatusIOError
	}
	for _, info := range infos {
		if st := o.addPGObject(reply, msg.PG, info.OID, msg.Depth); st != wire.StatusOK {
			return st
		}
	}
	reply.Next, reply.Done = uint64(last), done
	return wire.StatusOK
}

// addPGObject appends oid at depth to reply. An object deleted since the
// listing is skipped. A checksum failure ships the object Bad, without
// data, so the puller learns this copy is rotten rather than divergent
// or deleted. Any other error aborts the chunk: a skipped object would
// look deleted, and the puller would prune or "repair" it with stale data.
func (o *OSD) addPGObject(reply *wire.PGChunk, pg uint32, oid wire.ObjectID, depth wire.PullDepth) wire.Status {
	info, err := o.st.Stat(pg, oid)
	if errors.Is(err, store.ErrNotFound) {
		return wire.StatusOK
	}
	if err != nil {
		return wire.StatusIOError
	}
	obj := wire.PGObject{OID: oid, Version: info.Version, Size: info.Size}
	if depth >= wire.DepthCRC {
		data, err := o.st.Read(pg, oid, 0, uint32(info.Size))
		switch {
		case errors.Is(err, store.ErrNotFound):
			return wire.StatusOK
		case errors.Is(err, store.ErrChecksum):
			o.CksumReadErrors.Inc()
			obj.Bad = true
		case err != nil:
			return wire.StatusIOError
		default:
			obj.CRC = crc32.Checksum(data, crcTab)
			if depth >= wire.DepthData {
				obj.Data = data
			}
		}
	}
	reply.Objects = append(reply.Objects, obj)
	return wire.StatusOK
}
