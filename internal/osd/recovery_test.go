package osd

import (
	"bytes"
	"testing"

	"rebloc/internal/crush"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/nvm"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// standaloneOSD builds a started proposed-mode OSD with a single-member
// map injected directly (no monitor).
func standaloneOSD(t *testing.T, tr messenger.Transport, addr string) *OSD {
	return standaloneOSDOn(t, tr, addr, device.NewMem(512<<20))
}

// standaloneOSDOn is standaloneOSD over the given device.
func standaloneOSDOn(t *testing.T, tr messenger.Transport, addr string, dev device.Device) *OSD {
	t.Helper()
	o, err := New(Config{
		ID:         0,
		Mode:       ModeProposed,
		Transport:  tr,
		ListenAddr: addr,
		Dev:        dev,
		Bank:       nvm.NewBank(64 << 20),
		Partitions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	m := crush.NewMap(16, 1)
	m.OSDs[0] = crush.OSDInfo{ID: 0, Addr: addr, Up: true, Weight: 1}
	o.SetMap(m)
	return o
}

func TestServePGPullListsObjects(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.bf")

	// Seed objects in one PG directly through the store.
	const pg = 3
	data := bytes.Repeat([]byte{0x5A}, 2048)
	for _, name := range []string{"a", "b", "c"} {
		txn := &store.Transaction{}
		txn.AddWrite(pg, wire.ObjectID{Pool: 1, Name: name}, 0, data)
		if err := o.Store().Submit(txn); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := tr.Dial("osd.bf")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var objects []wire.PGObject
	var cursor uint64
	for {
		if err := conn.Send(&wire.PGPull{ReqID: 1, PG: pg, Cursor: cursor, Max: 2, Depth: wire.DepthData}); err != nil {
			t.Fatal(err)
		}
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		chunk, ok := m.(*wire.PGChunk)
		if !ok || chunk.Status != wire.StatusOK {
			t.Fatalf("reply = %+v", m)
		}
		objects = append(objects, chunk.Objects...)
		if chunk.Done {
			break
		}
		cursor = chunk.Next
	}
	if len(objects) != 3 {
		t.Fatalf("backfill listed %d objects, want 3", len(objects))
	}
	for _, obj := range objects {
		if !bytes.Equal(obj.Data, data) {
			t.Fatalf("object %s data wrong", obj.OID)
		}
	}
}

func TestServePGPullFlushesStagedFirst(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.bf2")

	// Stage a write in the op log only (no flush).
	const pg = 5
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	op := wire.Op{
		Kind: wire.OpWrite,
		OID:  wire.ObjectID{Pool: 1, Name: "staged"},
		Seq:  pgs.nextSeq(),
		Data: []byte("staged-data"),
	}
	op.Version = op.Seq
	if err := o.appendWithFlush(pgs, op); err != nil {
		t.Fatal(err)
	}

	conn, err := tr.Dial("osd.bf2")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.PGPull{ReqID: 1, PG: pg, Max: 16, Depth: wire.DepthData}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	chunk := m.(*wire.PGChunk)
	if len(chunk.Objects) != 1 || string(chunk.Objects[0].Data) != "staged-data" {
		t.Fatalf("staged data not flushed into backfill: %+v", chunk)
	}
}

// pullOnce sends one PGPull over a fresh connection and returns the reply.
func pullOnce(t *testing.T, tr messenger.Transport, addr string, req *wire.PGPull) *wire.PGChunk {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(req); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	chunk, ok := m.(*wire.PGChunk)
	if !ok || chunk.ReqID != req.ReqID {
		t.Fatalf("reply = %+v", m)
	}
	return chunk
}

// TestServePGPullRefusesUnservedPG pins the authority rule at every
// depth: a PG this OSD does not know, or knows but does not serve clean,
// answers Again with no objects.
func TestServePGPullRefusesUnservedPG(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.auth")
	const unclean, unknown = 4, 99
	txn := &store.Transaction{}
	txn.AddWrite(unclean, wire.ObjectID{Pool: 1, Name: "x"}, 0, []byte("half-synced"))
	if err := o.Store().Submit(txn); err != nil {
		t.Fatal(err)
	}
	pgs, err := o.pgStateFor(unclean)
	if err != nil {
		t.Fatal(err)
	}
	pgs.mu.Lock()
	pgs.clean = false
	pgs.mu.Unlock()

	for _, tc := range []struct {
		name  string
		depth wire.PullDepth
	}{
		{"meta", wire.DepthMeta},
		{"crc", wire.DepthCRC},
		{"data", wire.DepthData},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, pg := range []uint32{unclean, unknown} {
				for _, oid := range []wire.ObjectID{{}, {Pool: 1, Name: "x"}} {
					c := pullOnce(t, tr, "osd.auth", &wire.PGPull{ReqID: 7, PG: pg, Depth: tc.depth, OID: oid})
					if c.Status != wire.StatusAgain || c.Clean || len(c.Objects) != 0 {
						t.Fatalf("pg %d oid %q: reply %+v, want Again, unclean, no objects", pg, oid.Name, c)
					}
				}
			}
		})
	}
}

// TestBackfillFailsOnRottenSource: an object whose blocks fail their
// checksum on the source ships Bad, and the backfill round fails without
// installing it or pruning the puller's own copy.
func TestBackfillFailsOnRottenSource(t *testing.T) {
	tr := messenger.NewInProc()
	fault := device.NewFault(device.NewMem(512 << 20))
	src := standaloneOSDOn(t, tr, "osd.rot-src", fault)
	dst := standaloneOSD(t, tr, "osd.rot-dst")

	const pg = 6
	rot := wire.ObjectID{Pool: 1, Name: "rot"}
	write := func(o *OSD, oid wire.ObjectID, data []byte) {
		t.Helper()
		txn := &store.Transaction{}
		txn.AddWrite(pg, oid, 0, data)
		if err := o.Store().Submit(txn); err != nil {
			t.Fatal(err)
		}
	}
	write(src, rot, bytes.Repeat([]byte{0xAB}, 8192))
	old := bytes.Repeat([]byte{0x11}, 8192)
	write(dst, rot, old)
	if err := src.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	fault.ArmCorruptReads(0, 1)

	c := pullOnce(t, tr, "osd.rot-src", &wire.PGPull{ReqID: 1, PG: pg, Max: 16, Depth: wire.DepthData})
	if c.Status != wire.StatusOK || len(c.Objects) != 1 {
		t.Fatalf("reply = %+v, want one object", c)
	}
	if obj := c.Objects[0]; !obj.Bad || len(obj.Data) != 0 || obj.OID != rot {
		t.Fatalf("object = %+v, want %s Bad with no data", obj, rot)
	}
	if src.CksumReadErrors.Load() == 0 {
		t.Fatal("checksum error not counted on the source")
	}

	m := crush.NewMap(16, 1)
	m.OSDs[1] = crush.OSDInfo{ID: 1, Addr: "osd.rot-src", Up: true, Weight: 1}
	pgs, err := dst.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	res := dst.backfillAttempt(pg, pgs, m, 1, make(chan struct{}))
	if res.synced || !res.probed || !res.clean {
		t.Fatalf("backfill result = %+v, want probed clean source and no sync", res)
	}
	got, err := dst.Store().Read(pg, rot, 0, uint32(len(old)))
	if err != nil {
		t.Fatalf("puller's copy gone after a failed round: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("rotten object installed on the puller")
	}
}

func TestServeOplogPullReturnsStagedSuffix(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.op")

	const pg = 7
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		op := wire.Op{
			Kind: wire.OpWrite,
			OID:  wire.ObjectID{Pool: 1, Name: "o"},
			Seq:  pgs.nextSeq(),
			Data: []byte{byte(i)},
		}
		if err := o.appendWithFlush(pgs, op); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := tr.Dial("osd.op")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.OplogPull{ReqID: 9, PG: pg, FromSeq: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	chunk, ok := m.(*wire.OplogChunk)
	if !ok || chunk.ReqID != 9 {
		t.Fatalf("reply = %+v", m)
	}
	if len(chunk.Ops) != 3 { // seqs 3,4,5
		t.Fatalf("pulled %d ops, want 3", len(chunk.Ops))
	}
	if chunk.Ops[0].Seq != 3 || chunk.Ops[2].Seq != 5 {
		t.Fatalf("wrong suffix: %+v", chunk.Ops)
	}
}

func TestPruneStaleObjects(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.prune")
	const pg = 2
	for _, name := range []string{"keep", "stale"} {
		txn := &store.Transaction{}
		txn.AddWrite(pg, wire.ObjectID{Pool: 1, Name: name}, 0, []byte("x"))
		if err := o.Store().Submit(txn); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[store.Key]bool{
		store.MakeKey(pg, wire.ObjectID{Pool: 1, Name: "keep"}): true,
	}
	o.pruneStaleObjects(pg, seen)
	if err := o.Store().Flush(); err != nil { // reclaim delayed deletes
		t.Fatal(err)
	}
	if _, err := o.Store().Stat(pg, wire.ObjectID{Pool: 1, Name: "keep"}); err != nil {
		t.Fatalf("kept object missing: %v", err)
	}
	if _, err := o.Store().Stat(pg, wire.ObjectID{Pool: 1, Name: "stale"}); err == nil {
		t.Fatal("stale object not pruned")
	}
}
