package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

const (
	blockBytes = 4096
	stampBytes = 32
	// prefillSeq stamps every block the set-up writes; workload writes
	// draw larger sequence numbers.
	prefillSeq = 1
)

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fillBlock writes the stamp of (blk, writer, seq) over the whole block:
// the 32-byte stamp (block index, writer, sequence number, check word)
// repeated end to end, so a torn, misdirected or stale write shows
// anywhere in the block.
func fillBlock(buf []byte, blk, writer, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:], blk)
	binary.LittleEndian.PutUint64(buf[8:], writer)
	binary.LittleEndian.PutUint64(buf[16:], seq)
	binary.LittleEndian.PutUint64(buf[24:], mix64(blk^mix64(writer^mix64(seq))))
	for n := stampBytes; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// blocks tracks, for every 4 KiB block of every image, the sequence
// number of the last acknowledged write and of the last issued one.
// Writes to one block are serialised by its lock, so sequence numbers
// rise along each block's history and a read is correct exactly when it
// returns a stamp for that block whose sequence number lies between the
// last acknowledged write before the read started and the last write
// issued before it ended.
type blocks struct {
	perImage  uint64
	locks     []sync.Mutex
	issued    []atomic.Uint64
	committed []atomic.Uint64
	seq       atomic.Uint64
}

func newBlocks(images int, imageBytes uint64) *blocks {
	n := uint64(images) * imageBytes / blockBytes
	b := &blocks{
		perImage:  imageBytes / blockBytes,
		locks:     make([]sync.Mutex, n),
		issued:    make([]atomic.Uint64, n),
		committed: make([]atomic.Uint64, n),
	}
	b.seq.Store(prefillSeq)
	return b
}

// lockRange takes the locks of blocks [g, g+n) in ascending order and
// records the set-up's stamp as issued on them; workload writers lock one
// block at a time, so the order cannot deadlock.
func (b *blocks) lockRange(g, n uint64) {
	for i := g; i < g+n; i++ {
		b.locks[i].Lock()
		b.issued[i].Store(prefillSeq)
	}
}

// unlockRange releases blocks [g, g+n), recording the set-up's stamp as
// acknowledged on them when landed is set.
func (b *blocks) unlockRange(g, n uint64, landed bool) {
	for i := g; i < g+n; i++ {
		if landed {
			b.committed[i].Store(prefillSeq)
		}
		b.locks[i].Unlock()
	}
}

// valid reports whether buf holds a correct stamp for block g whose
// sequence number lies in [lo, hi]. scratch is a block-sized buffer. A
// block no write was acknowledged on (lo == 0) may also still read as
// zeros: a stalled set-up leaves blocks it never wrote.
func valid(buf, scratch []byte, g, lo, hi uint64) bool {
	if lo == 0 && isZero(buf) {
		return true
	}
	blk := binary.LittleEndian.Uint64(buf[0:])
	writer := binary.LittleEndian.Uint64(buf[8:])
	seq := binary.LittleEndian.Uint64(buf[16:])
	if blk != g || seq < lo || seq > hi {
		return false
	}
	fillBlock(scratch, blk, writer, seq)
	return bytes.Equal(buf, scratch)
}

func isZero(buf []byte) bool {
	for _, c := range buf {
		if c != 0 {
			return false
		}
	}
	return true
}

// zipf draws YCSB zipfian ranks in [0, n) (Gray et al.'s generator, the
// one YCSB uses).
type zipf struct {
	n                       uint64
	alpha, zetan, eta, half float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		var s float64
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipf{
		n:     n,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		half:  1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) next(u float64) uint64 {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	return min(r, z.n-1)
}

// rng is a splitmix64 stream: cheap, allocation-free and reproducible
// from a seed.
type rng struct{ s uint64 }

func newRng(parts ...uint64) rng {
	var s uint64
	for _, p := range parts {
		s = mix64(s ^ p + 0x9e3779b97f4a7c15)
	}
	return rng{s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) below(n uint64) uint64 { return r.next() % n }
