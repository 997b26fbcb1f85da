package wire

import (
	"reflect"
	"testing"
)

func TestRoundTripPGPull(t *testing.T) {
	for _, in := range []*PGPull{
		{ReqID: 3, PG: 7, Cursor: 0xa0, Max: 32, Depth: DepthCRC},
		{ReqID: 5, PG: 2, Cursor: ^uint64(0), Max: 256, Depth: DepthData},
		// Exact-object fetch shape.
		{ReqID: 4, PG: 1, Depth: DepthData, OID: ObjectID{Pool: 2, Name: "img.3"}},
	} {
		got, ok := roundTrip(t, in).(*PGPull)
		if !ok || !reflect.DeepEqual(in, got) {
			t.Fatalf("got %+v, want %+v", got, in)
		}
	}
}

func TestRoundTripPGChunk(t *testing.T) {
	in := &PGChunk{
		ReqID: 9, PG: 5, Status: StatusOK, Clean: true,
		Objects: []PGObject{
			{OID: ObjectID{Pool: 1, Name: "a"}, Version: 3, Size: 8192, CRC: 0xDEADBEEF},
			{OID: ObjectID{Pool: 1, Name: "b"}, Version: 1, Size: 4096, Bad: true},
			{OID: ObjectID{Pool: 1, Name: "c"}, Version: 2, Size: 5, CRC: 7, Data: []byte("bytes")},
		},
		Next: 0x10,
		Done: false,
	}
	got, ok := roundTrip(t, in).(*PGChunk)
	if !ok {
		t.Fatal("wrong message type")
	}
	// Normalise nil-vs-empty Data before the deep compare.
	for i := range got.Objects {
		if len(got.Objects[i].Data) == 0 {
			got.Objects[i].Data = nil
		}
		if len(in.Objects[i].Data) == 0 {
			in.Objects[i].Data = nil
		}
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	// Empty chunk (unclean refusal) survives too.
	in = &PGChunk{ReqID: 1, PG: 2, Status: StatusAgain, Done: true}
	got, ok = roundTrip(t, in).(*PGChunk)
	if !ok || !reflect.DeepEqual(in, got) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}
