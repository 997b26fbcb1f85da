package wire

// PullDepth selects how much work a PGPull asks the source to do per
// object.
type PullDepth uint8

// Pull depths, each a superset of the one before.
const (
	// DepthMeta ships existence, size and version only (light scrub).
	DepthMeta PullDepth = iota
	// DepthCRC also reads every object back through the checksum-verified
	// path and ships its whole-object CRC32C (deep scrub).
	DepthCRC
	// DepthData also ships the object bytes (backfill, and with OID set
	// the read-repair fetch of one object).
	DepthData
)

// PGPull is the one object-level pull of the recovery and integrity
// protocols. Two shapes share the message:
//
//   - Cursor walk (OID.Name == ""): up to Max objects of the PG in key
//     order, starting after Cursor (a store key; 0 starts the walk).
//   - Exact fetch (OID.Name != ""): that single object.
//
// The source answers only while it serves the PG clean: a half-synced
// store must never become a backfill or repair source.
type PGPull struct {
	ReqID  uint64
	PG     uint32
	Cursor uint64
	Max    uint32
	Depth  PullDepth
	OID    ObjectID
}

// Type implements Message.
func (*PGPull) Type() MsgType { return TPGPull }

// Encode implements Message.
func (m *PGPull) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.PG)
	e.U64(m.Cursor)
	e.U32(m.Max)
	e.U8(uint8(m.Depth))
	m.OID.encode(e)
}

// Decode implements Message.
func (m *PGPull) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.PG = d.U32()
	m.Cursor = d.U64()
	m.Max = d.U32()
	m.Depth = PullDepth(d.U8())
	m.OID = decodeObjectID(d)
}

// PGObject is one object inside a PGChunk. CRC is the whole-object
// Castagnoli CRC (DepthCRC and up; 0 otherwise). Bad marks an object the
// source itself could not read back cleanly — its checksums failed
// locally — so the puller must treat that copy as damaged, never as
// divergent or deleted. A Bad object carries no Data.
type PGObject struct {
	OID     ObjectID
	Version uint64
	Size    uint64
	CRC     uint32
	Bad     bool
	Data    []byte
}

// PGChunk answers a PGPull. Clean reports whether the source serves the
// PG; an unclean source answers StatusAgain with no objects. Next is the
// cursor of the following request; Done marks the end of the PG.
type PGChunk struct {
	ReqID   uint64
	PG      uint32
	Status  Status
	Clean   bool
	Objects []PGObject
	Next    uint64
	Done    bool
}

// Type implements Message.
func (*PGChunk) Type() MsgType { return TPGChunk }

// Encode implements Message.
func (m *PGChunk) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.PG)
	e.U8(uint8(m.Status))
	e.Bool(m.Clean)
	e.U32(uint32(len(m.Objects)))
	for i := range m.Objects {
		o := &m.Objects[i]
		o.OID.encode(e)
		e.U64(o.Version)
		e.U64(o.Size)
		e.U32(o.CRC)
		e.Bool(o.Bad)
		e.Bytes32(o.Data)
	}
	e.U64(m.Next)
	e.Bool(m.Done)
}

// Decode implements Message.
func (m *PGChunk) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.PG = d.U32()
	m.Status = Status(d.U8())
	m.Clean = d.Bool()
	n := int(d.U32())
	if n != 0 {
		if n < 0 || n > 1<<20 || n > d.Remaining()/16 {
			d.err = ErrShortBuffer
			return
		}
		m.Objects = make([]PGObject, 0, n)
		for i := 0; i < n; i++ {
			m.Objects = append(m.Objects, PGObject{
				OID:     decodeObjectID(d),
				Version: d.U64(),
				Size:    d.U64(),
				CRC:     d.U32(),
				Bad:     d.Bool(),
				Data:    d.Bytes32(),
			})
		}
	}
	m.Next = d.U64()
	m.Done = d.Bool()
}
