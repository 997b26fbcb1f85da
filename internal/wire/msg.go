package wire

import (
	"fmt"
	"hash/fnv"
)

// MsgType identifies a wire message.
type MsgType uint8

// Wire message types.
const (
	TClientWrite MsgType = iota + 1
	TClientRead
	TClientDelete
	TReply
	TRepl
	TReplAck
	TMonBoot
	TGetMap
	TMonMap
	TPing
	TPong
	TFlush
	TOplogPull
	TOplogChunk
	TPGPull
	TPGChunk
	TReplBatch

	// lastType is the highest message type. It must stay the final entry
	// of this block: the wire tests cover every type up to it.
	lastType MsgType = iota
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TClientWrite:
		return "ClientWrite"
	case TClientRead:
		return "ClientRead"
	case TClientDelete:
		return "ClientDelete"
	case TReply:
		return "Reply"
	case TRepl:
		return "Repl"
	case TReplAck:
		return "ReplAck"
	case TMonBoot:
		return "MonBoot"
	case TGetMap:
		return "GetMap"
	case TMonMap:
		return "MonMap"
	case TPing:
		return "Ping"
	case TPong:
		return "Pong"
	case TFlush:
		return "Flush"
	case TOplogPull:
		return "OplogPull"
	case TOplogChunk:
		return "OplogChunk"
	case TPGPull:
		return "PGPull"
	case TPGChunk:
		return "PGChunk"
	case TReplBatch:
		return "ReplBatch"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Status is the result code carried in replies.
type Status uint8

// Reply status codes. StatusOK is the zero value on purpose: a
// zero-initialised reply means success.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusIOError
	StatusStaleEpoch
	StatusNotPrimary
	StatusAgain
	StatusInvalid
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NotFound"
	case StatusIOError:
		return "IOError"
	case StatusStaleEpoch:
		return "StaleEpoch"
	case StatusNotPrimary:
		return "NotPrimary"
	case StatusAgain:
		return "Again"
	case StatusInvalid:
		return "Invalid"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// ObjectID names an object within a pool. The block layer stripes images
// over objects named "<image>.<index>".
type ObjectID struct {
	Pool uint32
	Name string
}

// Hash returns a stable 64-bit hash of the object id, used for PG mapping
// and as the object key inside the object stores.
func (o ObjectID) Hash() uint64 {
	h := fnv.New64a()
	var pool [4]byte
	pool[0] = byte(o.Pool)
	pool[1] = byte(o.Pool >> 8)
	pool[2] = byte(o.Pool >> 16)
	pool[3] = byte(o.Pool >> 24)
	_, _ = h.Write(pool[:])
	_, _ = h.Write([]byte(o.Name))
	return h.Sum64()
}

// String renders "pool/name".
func (o ObjectID) String() string { return fmt.Sprintf("%d/%s", o.Pool, o.Name) }

func (o ObjectID) encode(e *Encoder) {
	e.U32(o.Pool)
	e.String32(o.Name)
}

func decodeObjectID(d *Decoder) ObjectID {
	return ObjectID{Pool: d.U32(), Name: d.String32()}
}

// OpKind identifies a mutation kind inside replication and operation logs.
type OpKind uint8

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpDelete
	OpRead // reads are appended to the operation log when they must be
	// serviced by a non-priority thread (paper Fig 6, R2/R3)
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpDelete:
		return "delete"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one logged/replicated mutation: the unit stored in the NVM
// operation log and shipped to replicas.
type Op struct {
	Kind    OpKind
	OID     ObjectID
	Offset  uint64
	Length  uint32 // for reads/deletes; len(Data) for writes
	Version uint64 // per-object version assigned by the primary
	Seq     uint64 // per-PG sequence number
	Data    []byte
}

func (op *Op) encode(e *Encoder) {
	e.U8(uint8(op.Kind))
	op.OID.encode(e)
	e.U64(op.Offset)
	e.U32(op.Length)
	e.U64(op.Version)
	e.U64(op.Seq)
	e.Bytes32(op.Data)
}

func decodeOp(d *Decoder) Op {
	return Op{
		Kind:    OpKind(d.U8()),
		OID:     decodeObjectID(d),
		Offset:  d.U64(),
		Length:  d.U32(),
		Version: d.U64(),
		Seq:     d.U64(),
		Data:    d.Bytes32(),
	}
}

// Message is any frame payload.
type Message interface {
	// Type returns the frame type byte.
	Type() MsgType
	// Encode appends the payload to e.
	Encode(e *Encoder)
	// Decode parses the payload from d.
	Decode(d *Decoder)
}

// ClientWrite asks the primary OSD for oid's PG to apply a write.
type ClientWrite struct {
	ReqID  uint64
	Epoch  uint32
	OID    ObjectID
	Offset uint64
	Data   []byte
}

// Type implements Message.
func (*ClientWrite) Type() MsgType { return TClientWrite }

// Encode implements Message.
func (m *ClientWrite) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.Epoch)
	m.OID.encode(e)
	e.U64(m.Offset)
	e.Bytes32(m.Data)
}

// Decode implements Message.
func (m *ClientWrite) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.Epoch = d.U32()
	m.OID = decodeObjectID(d)
	m.Offset = d.U64()
	m.Data = d.Bytes32()
}

// ClientRead asks the primary OSD to read length bytes at offset.
type ClientRead struct {
	ReqID  uint64
	Epoch  uint32
	OID    ObjectID
	Offset uint64
	Length uint32
}

// Type implements Message.
func (*ClientRead) Type() MsgType { return TClientRead }

// Encode implements Message.
func (m *ClientRead) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.Epoch)
	m.OID.encode(e)
	e.U64(m.Offset)
	e.U32(m.Length)
}

// Decode implements Message.
func (m *ClientRead) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.Epoch = d.U32()
	m.OID = decodeObjectID(d)
	m.Offset = d.U64()
	m.Length = d.U32()
}

// ClientDelete asks the primary OSD to delete an object.
type ClientDelete struct {
	ReqID uint64
	Epoch uint32
	OID   ObjectID
}

// Type implements Message.
func (*ClientDelete) Type() MsgType { return TClientDelete }

// Encode implements Message.
func (m *ClientDelete) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.Epoch)
	m.OID.encode(e)
}

// Decode implements Message.
func (m *ClientDelete) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.Epoch = d.U32()
	m.OID = decodeObjectID(d)
}

// DataSeg is one scatter segment of a zero-copy reply payload: B covers
// [Off, Off+len(B)) of the payload; bytes between segments read as zero.
// Segments must be sorted by Off and non-overlapping.
type DataSeg struct {
	Off uint32
	B   []byte
}

// Reply answers a client request or an admin command.
//
// The payload has two in-memory representations with one wire format:
// the flat Data slice, or — when DataSegs is non-nil — a scatter list
// over a payload of DataLen bytes, encoded segment by segment straight
// into the frame (gaps zero-filled). The zero-copy read path uses the
// scatter form so extent-index hits serve staged bytes to the frame
// encoder without an intermediate compose copy. Decode always produces
// the flat form; receivers never see DataSegs.
type Reply struct {
	ReqID   uint64
	Status  Status
	Version uint64
	Data    []byte

	DataLen  uint32    // scatter payload length; used only when DataSegs != nil
	DataSegs []DataSeg // scatter segments; nil means use Data
}

// Type implements Message.
func (*Reply) Type() MsgType { return TReply }

// Encode implements Message.
func (m *Reply) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U8(uint8(m.Status))
	e.U64(m.Version)
	if m.DataSegs == nil {
		e.Bytes32(m.Data)
		return
	}
	// Scatter form: byte-identical to Bytes32 of the composed payload.
	e.U32(m.DataLen)
	pos := uint32(0)
	for _, s := range m.DataSegs {
		if s.Off > pos {
			e.Zeros(int(s.Off - pos))
		}
		e.Raw(s.B)
		pos = s.Off + uint32(len(s.B))
	}
	if pos < m.DataLen {
		e.Zeros(int(m.DataLen - pos))
	}
}

// Decode implements Message.
func (m *Reply) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.Status = Status(d.U8())
	m.Version = d.U64()
	m.Data = d.Bytes32()
}

// Repl carries one mutation from the primary to a replica.
type Repl struct {
	ReqID uint64 // primary-local tag echoed in the ack
	PG    uint32
	Epoch uint32
	Op    Op
}

// Type implements Message.
func (*Repl) Type() MsgType { return TRepl }

// Encode implements Message.
func (m *Repl) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.PG)
	e.U32(m.Epoch)
	m.Op.encode(e)
}

// Decode implements Message.
func (m *Repl) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.PG = d.U32()
	m.Epoch = d.U32()
	m.Op = decodeOp(d)
}

// ReplBatch carries several mutations from the primary to one replica in
// a single frame. The primary coalesces ops queued for the same peer
// (replication fan-out batching); the replica processes the items in
// order and acknowledges each with its own ReplAck, so the ack path and
// the pending-op bookkeeping are identical to unbatched Repl.
type ReplBatch struct {
	Items []Repl
}

// Type implements Message.
func (*ReplBatch) Type() MsgType { return TReplBatch }

// Encode implements Message.
func (m *ReplBatch) Encode(e *Encoder) {
	e.U32(uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		e.U64(it.ReqID)
		e.U32(it.PG)
		e.U32(it.Epoch)
		it.Op.encode(e)
	}
}

// Decode implements Message.
func (m *ReplBatch) Decode(d *Decoder) {
	n := int(d.U32())
	if n == 0 {
		return
	}
	// Every item occupies at least 16 bytes on the wire, so a count the
	// payload cannot hold is garbage: fail instead of over-allocating.
	if n < 0 || n > 1<<20 || n > d.Remaining()/16 {
		d.err = ErrShortBuffer
		return
	}
	m.Items = make([]Repl, 0, n)
	for i := 0; i < n; i++ {
		m.Items = append(m.Items, Repl{
			ReqID: d.U64(),
			PG:    d.U32(),
			Epoch: d.U32(),
			Op:    decodeOp(d),
		})
	}
}

// ReplAck acknowledges a replicated mutation. From names the acking OSD
// so the primary can count each secondary at most once even if the
// network duplicates or replays the ack frame.
type ReplAck struct {
	ReqID  uint64
	PG     uint32
	Seq    uint64
	From   uint32
	Status Status
}

// Type implements Message.
func (*ReplAck) Type() MsgType { return TReplAck }

// Encode implements Message.
func (m *ReplAck) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.PG)
	e.U64(m.Seq)
	e.U32(m.From)
	e.U8(uint8(m.Status))
}

// Decode implements Message.
func (m *ReplAck) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.PG = d.U32()
	m.Seq = d.U64()
	m.From = d.U32()
	m.Status = Status(d.U8())
}

// MonBoot announces an OSD to the monitor.
type MonBoot struct {
	OSDID uint32
	Addr  string
}

// Type implements Message.
func (*MonBoot) Type() MsgType { return TMonBoot }

// Encode implements Message.
func (m *MonBoot) Encode(e *Encoder) {
	e.U32(m.OSDID)
	e.String32(m.Addr)
}

// Decode implements Message.
func (m *MonBoot) Decode(d *Decoder) {
	m.OSDID = d.U32()
	m.Addr = d.String32()
}

// GetMap requests the current cluster map from the monitor.
type GetMap struct {
	ReqID uint64
}

// Type implements Message.
func (*GetMap) Type() MsgType { return TGetMap }

// Encode implements Message.
func (m *GetMap) Encode(e *Encoder) { e.U64(m.ReqID) }

// Decode implements Message.
func (m *GetMap) Decode(d *Decoder) { m.ReqID = d.U64() }

// MonMap distributes an encoded cluster map (see internal/crush).
type MonMap struct {
	ReqID    uint64
	MapBytes []byte
}

// Type implements Message.
func (*MonMap) Type() MsgType { return TMonMap }

// Encode implements Message.
func (m *MonMap) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.Bytes32(m.MapBytes)
}

// Decode implements Message.
func (m *MonMap) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.MapBytes = d.Bytes32()
}

// Ping is an OSD heartbeat to the monitor.
type Ping struct {
	OSDID uint32
	Epoch uint32
}

// Type implements Message.
func (*Ping) Type() MsgType { return TPing }

// Encode implements Message.
func (m *Ping) Encode(e *Encoder) {
	e.U32(m.OSDID)
	e.U32(m.Epoch)
}

// Decode implements Message.
func (m *Ping) Decode(d *Decoder) {
	m.OSDID = d.U32()
	m.Epoch = d.U32()
}

// Pong answers a Ping, carrying the monitor's current epoch.
type Pong struct {
	Epoch uint32
}

// Type implements Message.
func (*Pong) Type() MsgType { return TPong }

// Encode implements Message.
func (m *Pong) Encode(e *Encoder) { e.U32(m.Epoch) }

// Decode implements Message.
func (m *Pong) Decode(d *Decoder) { m.Epoch = d.U32() }

// Flush asks an OSD to synchronously flush all staged operations (admin
// and recovery use).
type Flush struct {
	ReqID  uint64
	Retain bool // keep op-log entries after flushing (pre-recovery flush)
}

// Type implements Message.
func (*Flush) Type() MsgType { return TFlush }

// Encode implements Message.
func (m *Flush) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.Bool(m.Retain)
}

// Decode implements Message.
func (m *Flush) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.Retain = d.Bool()
}

// OplogPull requests the operation-log suffix for a PG starting at FromSeq
// (recovery step ⑤ in the paper).
type OplogPull struct {
	ReqID   uint64
	PG      uint32
	FromSeq uint64
}

// Type implements Message.
func (*OplogPull) Type() MsgType { return TOplogPull }

// Encode implements Message.
func (m *OplogPull) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.PG)
	e.U64(m.FromSeq)
}

// Decode implements Message.
func (m *OplogPull) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.PG = d.U32()
	m.FromSeq = d.U64()
}

// OplogChunk returns operation-log entries for a PG. It doubles as the
// authority probe of the recovery protocol: Clean and Epoch describe the
// source's standing for this PG, and a puller must not copy data from a
// source that reports itself unclean.
type OplogChunk struct {
	ReqID  uint64
	PG     uint32
	Status Status
	// Clean reports whether the source currently serves this PG (it is
	// not itself mid-backfill).
	Clean bool
	// Epoch is the map epoch of the latest interval the source served
	// this PG clean — its authority rank when no clean source exists.
	Epoch uint32
	Ops   []Op
}

// Type implements Message.
func (*OplogChunk) Type() MsgType { return TOplogChunk }

// Encode implements Message.
func (m *OplogChunk) Encode(e *Encoder) {
	e.U64(m.ReqID)
	e.U32(m.PG)
	e.U8(uint8(m.Status))
	e.Bool(m.Clean)
	e.U32(m.Epoch)
	e.U32(uint32(len(m.Ops)))
	for i := range m.Ops {
		m.Ops[i].encode(e)
	}
}

// Decode implements Message.
func (m *OplogChunk) Decode(d *Decoder) {
	m.ReqID = d.U64()
	m.PG = d.U32()
	m.Status = Status(d.U8())
	m.Clean = d.Bool()
	m.Epoch = d.U32()
	n := int(d.U32())
	if n == 0 {
		return
	}
	if n < 0 || n > 1<<20 || n > d.Remaining()/16 {
		d.err = ErrShortBuffer
		return
	}
	m.Ops = make([]Op, 0, n)
	for i := 0; i < n; i++ {
		m.Ops = append(m.Ops, decodeOp(d))
	}
}

// New returns a zero message of the given type, or nil if unknown.
func New(t MsgType) Message {
	switch t {
	case TClientWrite:
		return &ClientWrite{}
	case TClientRead:
		return &ClientRead{}
	case TClientDelete:
		return &ClientDelete{}
	case TReply:
		return &Reply{}
	case TRepl:
		return &Repl{}
	case TReplAck:
		return &ReplAck{}
	case TMonBoot:
		return &MonBoot{}
	case TGetMap:
		return &GetMap{}
	case TMonMap:
		return &MonMap{}
	case TPing:
		return &Ping{}
	case TPong:
		return &Pong{}
	case TFlush:
		return &Flush{}
	case TOplogPull:
		return &OplogPull{}
	case TOplogChunk:
		return &OplogChunk{}
	case TPGPull:
		return &PGPull{}
	case TPGChunk:
		return &PGChunk{}
	case TReplBatch:
		return &ReplBatch{}
	default:
		return nil
	}
}
