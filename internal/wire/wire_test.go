package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Marshal(m)
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", m.Type(), err)
	}
	return got
}

func TestRoundTripClientWrite(t *testing.T) {
	in := &ClientWrite{ReqID: 7, Epoch: 3, OID: ObjectID{Pool: 1, Name: "img.0"}, Offset: 4096, Data: []byte("hello")}
	got, ok := roundTrip(t, in).(*ClientWrite)
	if !ok || !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripClientRead(t *testing.T) {
	in := &ClientRead{ReqID: 9, Epoch: 1, OID: ObjectID{Pool: 2, Name: "x"}, Offset: 8192, Length: 4096}
	got, ok := roundTrip(t, in).(*ClientRead)
	if !ok || !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripClientDelete(t *testing.T) {
	in := &ClientDelete{ReqID: 2, Epoch: 5, OID: ObjectID{Pool: 9, Name: "gone"}}
	got, ok := roundTrip(t, in).(*ClientDelete)
	if !ok || !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripReply(t *testing.T) {
	in := &Reply{ReqID: 11, Status: StatusNotFound, Version: 42, Data: []byte{1, 2, 3}}
	got, ok := roundTrip(t, in).(*Reply)
	if !ok || !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripRepl(t *testing.T) {
	in := &Repl{
		ReqID: 5, PG: 12, Epoch: 2,
		Op: Op{Kind: OpWrite, OID: ObjectID{Pool: 1, Name: "o"}, Offset: 512, Length: 5, Version: 3, Seq: 77, Data: []byte("abcde")},
	}
	got, ok := roundTrip(t, in).(*Repl)
	if !ok || !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripReplAck(t *testing.T) {
	in := &ReplAck{ReqID: 1, PG: 2, Seq: 3, Status: StatusOK}
	got, ok := roundTrip(t, in).(*ReplAck)
	if !ok || !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripMonMessages(t *testing.T) {
	msgs := []Message{
		&MonBoot{OSDID: 3, Addr: "127.0.0.1:7000"},
		&GetMap{ReqID: 8},
		&MonMap{ReqID: 8, MapBytes: []byte{9, 9, 9}},
		&Ping{OSDID: 2, Epoch: 4},
		&Pong{Epoch: 5},
		&Flush{ReqID: 6, Retain: true},
	}
	for _, in := range msgs {
		got := roundTrip(t, in)
		if !reflect.DeepEqual(in, got) {
			t.Fatalf("%s: got %+v, want %+v", in.Type(), got, in)
		}
	}
}

func TestRoundTripRecoveryMessages(t *testing.T) {
	pull := &OplogPull{ReqID: 1, PG: 2, FromSeq: 10}
	if got := roundTrip(t, pull); !reflect.DeepEqual(pull, got) {
		t.Fatalf("got %+v", got)
	}
	chunk := &OplogChunk{
		ReqID: 1, PG: 2, Status: StatusOK,
		Ops: []Op{
			{Kind: OpWrite, OID: ObjectID{Pool: 1, Name: "a"}, Seq: 1, Data: []byte("x")},
			{Kind: OpDelete, OID: ObjectID{Pool: 1, Name: "b"}, Seq: 2, Data: []byte{}},
		},
	}
	got, ok := roundTrip(t, chunk).(*OplogChunk)
	if !ok || len(got.Ops) != 2 || got.Ops[1].Kind != OpDelete {
		t.Fatalf("got %+v", got)
	}
	pp := &PGPull{ReqID: 3, PG: 4, Cursor: 17, Max: 128, Depth: DepthData}
	if got := roundTrip(t, pp); !reflect.DeepEqual(pp, got) {
		t.Fatalf("got %+v", got)
	}
	pc := &PGChunk{
		ReqID: 3, PG: 4, Status: StatusOK, Clean: true,
		Objects: []PGObject{{OID: ObjectID{Pool: 1, Name: "o1"}, Version: 9, Data: []byte("data")}},
		Next:    17, Done: true,
	}
	gotPC, ok := roundTrip(t, pc).(*PGChunk)
	if !ok || !gotPC.Done || len(gotPC.Objects) != 1 || gotPC.Objects[0].Version != 9 {
		t.Fatalf("got %+v", gotPC)
	}
}

func TestReadWriteMessageStream(t *testing.T) {
	var buf bytes.Buffer
	in1 := &ClientWrite{ReqID: 1, OID: ObjectID{Name: "a"}, Data: []byte("one")}
	in2 := &Reply{ReqID: 1, Status: StatusOK}
	if err := WriteMessage(&buf, in1); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, in2); err != nil {
		t.Fatal(err)
	}
	m1, scratch, err := ReadMessage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := m1.(*ClientWrite); !ok || string(w.Data) != "one" {
		t.Fatalf("got %+v", m1)
	}
	m2, _, err := ReadMessage(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := m2.(*Reply); !ok || r.ReqID != 1 {
		t.Fatalf("got %+v", m2)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("want error on empty buffer")
	}
	if _, err := Unmarshal([]byte{0, 0, 0, 0, 255}); err == nil {
		t.Fatal("want error on unknown type")
	}
	// Length mismatch.
	buf := Marshal(&Pong{Epoch: 1})
	if _, err := Unmarshal(buf[:len(buf)-1]); err == nil {
		t.Fatal("want error on truncated frame")
	}
}

func TestReadMessageRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(TPing)})
	if _, _, err := ReadMessage(&buf, nil); err == nil {
		t.Fatal("want error on oversized frame")
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64()
	if d.Err() == nil {
		t.Fatal("want short-buffer error")
	}
}

func TestDecoderFinishTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	_ = d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("want trailing-bytes error")
	}
}

func TestObjectIDHashStable(t *testing.T) {
	a := ObjectID{Pool: 1, Name: "img.7"}
	b := ObjectID{Pool: 1, Name: "img.7"}
	if a.Hash() != b.Hash() {
		t.Fatal("hash not deterministic")
	}
	c := ObjectID{Pool: 2, Name: "img.7"}
	if a.Hash() == c.Hash() {
		t.Fatal("pool must affect hash")
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder(nil)
	e.U8(1)
	e.U16(2)
	e.U32(3)
	e.U64(4)
	e.I64(-5)
	e.Bool(true)
	e.Bytes32([]byte("abc"))
	e.String32("def")
	d := NewDecoder(e.Bytes())
	if d.U8() != 1 || d.U16() != 2 || d.U32() != 3 || d.U64() != 4 || d.I64() != -5 || !d.Bool() {
		t.Fatal("primitive mismatch")
	}
	if string(d.Bytes32()) != "abc" || d.String32() != "def" {
		t.Fatal("bytes/string mismatch")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBytes32NoCopyAliases(t *testing.T) {
	e := NewEncoder(nil)
	e.Bytes32([]byte{7, 7})
	buf := e.Bytes()
	d := NewDecoder(buf)
	b := d.Bytes32NoCopy()
	buf[4] = 9
	if b[0] != 9 {
		t.Fatal("NoCopy must alias frame buffer")
	}
}

// Property: ClientWrite round-trips for arbitrary field values.
func TestQuickRoundTripClientWrite(t *testing.T) {
	f := func(req uint64, epoch uint32, pool uint32, name string, off uint64, data []byte) bool {
		in := &ClientWrite{ReqID: req, Epoch: epoch, OID: ObjectID{Pool: pool, Name: name}, Offset: off, Data: data}
		got, err := Unmarshal(Marshal(in))
		if err != nil {
			return false
		}
		g, ok := got.(*ClientWrite)
		if !ok {
			return false
		}
		if g.Data == nil {
			g.Data = []byte{}
		}
		if in.Data == nil {
			in.Data = []byte{}
		}
		return g.ReqID == in.ReqID && g.Epoch == in.Epoch && g.OID == in.OID &&
			g.Offset == in.Offset && bytes.Equal(g.Data, in.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Op round-trips inside a Repl for arbitrary values.
func TestQuickRoundTripOp(t *testing.T) {
	f := func(kind uint8, name string, off uint64, ln uint32, ver, seq uint64, data []byte) bool {
		in := &Repl{
			ReqID: 1, PG: 2, Epoch: 3,
			Op: Op{Kind: OpKind(kind%3 + 1), OID: ObjectID{Name: name}, Offset: off, Length: ln, Version: ver, Seq: seq, Data: data},
		}
		got, err := Unmarshal(Marshal(in))
		if err != nil {
			return false
		}
		g, ok := got.(*Repl)
		if !ok {
			return false
		}
		if g.Op.Data == nil {
			g.Op.Data = []byte{}
		}
		if in.Op.Data == nil {
			in.Op.Data = []byte{}
		}
		return g.Op.Kind == in.Op.Kind && g.Op.OID == in.Op.OID && g.Op.Offset == in.Op.Offset &&
			g.Op.Length == in.Op.Length && g.Op.Version == in.Op.Version && g.Op.Seq == in.Op.Seq &&
			bytes.Equal(g.Op.Data, in.Op.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCoversAllTypes(t *testing.T) {
	for tt := TClientWrite; tt <= lastType; tt++ {
		m := New(tt)
		if m == nil {
			t.Fatalf("New(%s) = nil", tt)
		}
		if m.Type() != tt {
			t.Fatalf("New(%s).Type() = %s", tt, m.Type())
		}
	}
	if New(MsgType(200)) != nil {
		t.Fatal("New(unknown) should be nil")
	}
}

func TestMsgTypeAndStatusStrings(t *testing.T) {
	if TClientWrite.String() != "ClientWrite" || MsgType(200).String() == "" {
		t.Fatal("MsgType.String broken")
	}
	if StatusOK.String() != "OK" || Status(200).String() == "" {
		t.Fatal("Status.String broken")
	}
	if OpWrite.String() != "write" || OpKind(200).String() == "" {
		t.Fatal("OpKind.String broken")
	}
}

func BenchmarkMarshalClientWrite4K(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	m := &ClientWrite{ReqID: 1, OID: ObjectID{Pool: 1, Name: "img.0000042"}, Offset: 8192, Data: data}
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = AppendFrame(frame[:0], m)
	}
	_ = frame
}

func BenchmarkUnmarshalClientWrite4K(b *testing.B) {
	data := make([]byte, 4096)
	m := &ClientWrite{ReqID: 1, OID: ObjectID{Pool: 1, Name: "img.0000042"}, Offset: 8192, Data: data}
	frame := Marshal(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}
