package rbd_test

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"rebloc/internal/client"
	"rebloc/internal/core"
	"rebloc/internal/osd"
	"rebloc/internal/rbd"
)

func testClient(t *testing.T) *client.Client {
	t.Helper()
	c, err := core.New(core.Options{OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 16, DeviceBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		// Drop the last reference and hand the RAM devices back to the
		// OS: otherwise the next test's cluster reuses their spans, the
		// runtime zeroes them, and the suite's resident set grows by a
		// whole cluster per test.
		c = nil
		debug.FreeOSMemory()
	})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestCreateOpenRoundTrip(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "disk1", 8<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if img.Size() != 8<<20 || img.ObjectBytes() != 1<<20 || img.Name() != "disk1" {
		t.Fatalf("image = %+v", img)
	}
	// Duplicate create fails.
	if _, err := rbd.Create(cl, "disk1", 8<<20, rbd.CreateOptions{}); !errors.Is(err, rbd.ErrExists) {
		t.Fatalf("dup create: %v", err)
	}
	img2, err := rbd.Open(cl, "disk1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if img2.Size() != 8<<20 || img2.ObjectBytes() != 1<<20 {
		t.Fatal("open lost geometry")
	}
	if _, err := rbd.Open(cl, "ghost", 1); !errors.Is(err, rbd.ErrNotFound) {
		t.Fatalf("open missing: %v", err)
	}
}

func TestWriteReadWithinObject(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "d", 4<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAA}, 4096)
	if err := img.WriteAt(data, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := img.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestWriteSpansObjects(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "d", 4<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Write straddling the first object boundary.
	data := bytes.Repeat([]byte{0x5C}, 128<<10)
	off := uint64(1<<20) - 64<<10
	if err := img.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := img.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-object write corrupted")
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "d", 4<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	if err := img.ReadAt(got, 2<<20); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten range not zero")
		}
	}
}

func TestOutOfBounds(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "d", 1<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.WriteAt(make([]byte, 4096), 1<<20-1); !errors.Is(err, rbd.ErrOutOfBounds) {
		t.Fatalf("oob write: %v", err)
	}
	if err := img.ReadAt(make([]byte, 1), 1<<20); !errors.Is(err, rbd.ErrOutOfBounds) {
		t.Fatalf("oob read: %v", err)
	}
}

func TestRemove(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "temp", 2<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if err := rbd.Remove(cl, "temp", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rbd.Open(cl, "temp", 1); !errors.Is(err, rbd.ErrNotFound) {
		t.Fatalf("open removed: %v", err)
	}
	// Name reusable.
	if _, err := rbd.Create(cl, "temp", 1<<20, rbd.CreateOptions{ObjectBytes: 1 << 20}); err != nil {
		t.Fatalf("recreate: %v", err)
	}
}

func TestSkipPrealloc(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "thin", 64<<20, rbd.CreateOptions{ObjectBytes: 4 << 20, SkipPrealloc: true})
	if err != nil {
		t.Fatal(err)
	}
	// Thin image still works.
	if err := img.WriteAt([]byte("x"), 32<<20); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := img.ReadAt(got, 32<<20); err != nil || got[0] != 'x' {
		t.Fatalf("thin write lost: %v", err)
	}
}

// Property: random block-aligned writes then reads match a local model.
func TestQuickBlockModel(t *testing.T) {
	cl := testClient(t)
	img, err := rbd.Create(cl, "q", 4<<20, rbd.CreateOptions{ObjectBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 4<<20)
	rng := rand.New(rand.NewSource(77))
	f := func(blockU uint16, fill byte) bool {
		block := uint64(blockU) % (4 << 20 / 4096)
		off := block * 4096
		data := bytes.Repeat([]byte{fill}, 4096)
		if err := img.WriteAt(data, off); err != nil {
			return false
		}
		copy(model[off:off+4096], data)
		// Read back a random previously written block.
		check := uint64(rng.Intn(int(4 << 20 / 4096)))
		got := make([]byte, 4096)
		if err := img.ReadAt(got, check*4096); err != nil {
			return false
		}
		return bytes.Equal(got, model[check*4096:(check+1)*4096])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
