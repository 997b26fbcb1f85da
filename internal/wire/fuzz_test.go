package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestUnmarshalGarbageNeverPanics feeds random frames to the decoder:
// every outcome must be a clean message or error, never a panic or a
// huge allocation.
func TestUnmarshalGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(256)
		buf := make([]byte, 5+n)
		rng.Read(buf)
		binary.LittleEndian.PutUint32(buf, uint32(n))
		// Half the time use a valid type byte so the decoder goes deep.
		if i%2 == 0 {
			buf[4] = byte(rng.Intn(int(lastType)) + 1)
		}
		_, _ = Unmarshal(buf) // must not panic
	}
}

// TestDecodeTruncatedValidFrames truncates real frames at every length:
// decoding must error gracefully, never panic.
func TestDecodeTruncatedValidFrames(t *testing.T) {
	msgs := []Message{
		&ClientWrite{ReqID: 1, OID: ObjectID{Pool: 1, Name: "object-name"}, Offset: 4096, Data: make([]byte, 128)},
		&Repl{ReqID: 2, PG: 3, Op: Op{Kind: OpWrite, OID: ObjectID{Name: "x"}, Data: make([]byte, 64)}},
		&OplogChunk{ReqID: 1, Ops: []Op{{Kind: OpDelete, OID: ObjectID{Name: "y"}}}},
		&ReplBatch{Items: []Repl{
			{ReqID: 1, PG: 2, Op: Op{Kind: OpWrite, OID: ObjectID{Name: "a"}, Data: make([]byte, 16)}},
			{ReqID: 2, PG: 2, Op: Op{Kind: OpDelete, OID: ObjectID{Name: "b"}}},
		}},
		&PGChunk{Clean: true, Objects: []PGObject{
			{OID: ObjectID{Name: "z"}, Size: 32, CRC: 5, Data: make([]byte, 32)},
			{OID: ObjectID{Name: "rot"}, Size: 4096, Bad: true},
			{OID: ObjectID{Name: "meta"}, Size: 8},
		}, Next: 9, Done: true},
	}
	for _, m := range msgs {
		frame := Marshal(m)
		for cut := 0; cut < len(frame); cut++ {
			truncated := make([]byte, cut)
			copy(truncated, frame[:cut])
			_, _ = Unmarshal(truncated) // must not panic
		}
	}
}

// TestReadMessageHostileStreams drives the stream reader through every
// malformed-input class a broken or malicious peer can produce: truncated
// headers, frame lengths past the cap, unknown type bytes, payloads cut
// off mid-frame, and item counts the payload cannot hold. Every case must
// return an error without panicking or allocating absurdly.
func TestReadMessageHostileStreams(t *testing.T) {
	frame := Marshal(&ClientWrite{ReqID: 7, OID: ObjectID{Pool: 1, Name: "obj"}, Offset: 512, Data: make([]byte, 64)})

	t.Run("truncated header", func(t *testing.T) {
		for cut := 0; cut < 5; cut++ {
			if _, _, err := ReadMessage(bytes.NewReader(frame[:cut]), nil); err == nil {
				t.Fatalf("header cut at %d must error", cut)
			}
		}
	})

	t.Run("oversize length", func(t *testing.T) {
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], MaxFrame+1)
		hdr[4] = byte(TClientWrite)
		_, _, err := ReadMessage(bytes.NewReader(hdr[:]), nil)
		if err == nil || !strings.Contains(err.Error(), "exceeds max") {
			t.Fatalf("oversize frame: %v", err)
		}
	})

	t.Run("unknown type", func(t *testing.T) {
		var hdr [5]byte
		hdr[4] = 0xEE
		_, _, err := ReadMessage(bytes.NewReader(hdr[:]), nil)
		if err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("unknown type: %v", err)
		}
	})

	t.Run("mid-payload EOF", func(t *testing.T) {
		for _, keep := range []int{5, 6, len(frame) - 1} {
			_, _, err := ReadMessage(bytes.NewReader(frame[:keep]), nil)
			if err == nil {
				t.Fatalf("payload cut at %d must error", keep)
			}
		}
	})

	t.Run("hostile item count", func(t *testing.T) {
		// A ReplBatch claiming 2^20 items in a 4-byte payload must fail the
		// plausibility check instead of reserving a gigabyte of items.
		payload := binary.LittleEndian.AppendUint32(nil, 1<<20)
		hostile := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		hostile = append(hostile, byte(TReplBatch))
		hostile = append(hostile, payload...)
		if _, _, err := ReadMessage(bytes.NewReader(hostile), nil); err == nil {
			t.Fatal("implausible item count must error")
		}
		if _, err := Unmarshal(hostile); err == nil {
			t.Fatal("implausible item count must error via Unmarshal too")
		}
	})
}

// TestReadMessageStreamFuzz interleaves valid frames with garbage tails on
// one stream, reusing the scratch buffer across reads the way the
// messenger's receive loop does. Valid prefixes must decode; the garbage
// must surface as an error, never a panic.
func TestReadMessageStreamFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 300; round++ {
		var stream bytes.Buffer
		var want []Message
		for i := 0; i < 1+rng.Intn(4); i++ {
			data := make([]byte, rng.Intn(300))
			rng.Read(data)
			m := &ClientWrite{ReqID: uint64(round*10 + i), OID: ObjectID{Pool: 2, Name: "s"}, Data: data}
			want = append(want, m)
			if err := WriteMessage(&stream, m); err != nil {
				t.Fatal(err)
			}
		}
		garbage := make([]byte, rng.Intn(64))
		rng.Read(garbage)
		stream.Write(garbage)

		var scratch []byte
		r := bytes.NewReader(stream.Bytes())
		for i, w := range want {
			var m Message
			var err error
			m, scratch, err = ReadMessage(r, scratch)
			if err != nil {
				t.Fatalf("round %d frame %d: %v", round, i, err)
			}
			if !reflect.DeepEqual(m, w) {
				t.Fatalf("round %d frame %d: decoded %+v want %+v", round, i, m, w)
			}
		}
		// The garbage tail must end in an error (or a clean EOF when the
		// random bytes happen to parse), never a panic or an endless loop.
		for {
			_, scratch, _ = ReadMessage(r, scratch)
			if r.Len() == 0 {
				break
			}
		}
	}
}

// TestDecodedMessageDoesNotAliasScratch pins the decoder's copy
// discipline: a message decoded via ReadMessage must stay intact after
// the scratch buffer is reused for the next frame and clobbered. This is
// what makes releasing pooled frames right after decode safe.
func TestDecodedMessageDoesNotAliasScratch(t *testing.T) {
	first := bytes.Repeat([]byte{0xAA}, 1024)
	second := bytes.Repeat([]byte{0xBB}, 1024)
	var stream bytes.Buffer
	for _, data := range [][]byte{first, second} {
		if err := WriteMessage(&stream, &ClientWrite{OID: ObjectID{Name: "alias"}, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	m1, scratch, err := ReadMessage(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadMessage(r, scratch); err != nil {
		t.Fatal(err)
	}
	for i := range scratch[:cap(scratch)] {
		scratch[:cap(scratch)][i] = 0xCC
	}
	w1 := m1.(*ClientWrite)
	if !bytes.Equal(w1.Data, first) {
		t.Fatal("first message's data changed after scratch reuse: decoder aliased the buffer")
	}
	if w1.OID.Name != "alias" {
		t.Fatal("first message's name changed after scratch reuse")
	}
}

// TestReplBatchRoundTrip covers the batched replication frame end to end,
// including empty-data delete ops mixed with writes.
func TestReplBatchRoundTrip(t *testing.T) {
	in := &ReplBatch{Items: []Repl{
		{ReqID: 1, PG: 4, Epoch: 9, Op: Op{Kind: OpWrite, OID: ObjectID{Pool: 1, Name: "a"}, Offset: 4096, Length: 3, Version: 7, Seq: 11, Data: []byte{1, 2, 3}}},
		{ReqID: 2, PG: 4, Epoch: 9, Op: Op{Kind: OpDelete, OID: ObjectID{Pool: 1, Name: "b"}, Seq: 12, Data: []byte{}}},
		{ReqID: 3, PG: 5, Epoch: 9, Op: Op{Kind: OpWrite, OID: ObjectID{Pool: 2, Name: "c"}, Data: bytes.Repeat([]byte{7}, 4096), Length: 4096, Seq: 13}},
	}}
	out, err := Unmarshal(Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	// The decoded copy must not share memory with a reused encode buffer.
	frame := Marshal(in)
	out2, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xDD
	}
	if !reflect.DeepEqual(in, out2) {
		t.Fatal("decoded batch aliases the frame buffer")
	}
}
