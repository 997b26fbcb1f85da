package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/client"
	"rebloc/internal/core"
	"rebloc/internal/device"
	"rebloc/internal/rbd"
)

// tenant is one client session's load.
type tenant struct {
	image int
	// qd > 0 runs a closed loop of qd workers. Each worker that writes
	// owns the blocks b with b % qd == its index, so the last
	// acknowledged write to a block is never ambiguous.
	qd int
	// rate > 0 runs an open loop at rate ops/s with at most workers ops
	// outstanding; each op is timed from its due time.
	rate    float64
	workers int
	readPct int
	zipf    bool
	// writeClass is the latency class the tenant's writes count under.
	writeClass int
}

// workload is one named traffic mix and the cluster it runs on.
type workload struct {
	name       string
	images     int
	imageBytes uint64
	paced      bool
	qos        bool
	tenants    []tenant
}

const (
	classRead = iota
	classWrite
	classTrickle
	nClasses
)

// zipfTheta is YCSB's default skew.
const zipfTheta = 0.99

// bulkRate is the mixed-tenants bulk tenant's offered load. On 2 CPUs it
// keeps about one CPU busy: below saturation, so a backlog drains, but
// busy enough that the CPUs rarely go idle. At half this rate the idle
// CPUs' wake-up delays made p50 and CPU per op vary by a quarter between
// runs.
const bulkRate = 20000

// qosRate is each OSD's client-write admission budget in ops/s, above
// the whole mixed-tenants write load even if every write landed on one
// OSD.
const qosRate = 20000

var workloads = map[string]workload{
	"randwrite-4k": {
		name: "randwrite-4k", images: 2, imageBytes: 32 << 20,
		tenants: []tenant{
			{image: 0, qd: 8, writeClass: classWrite},
			{image: 1, qd: 8, writeClass: classWrite},
		},
	},
	"zipf-read-4k": {
		name: "zipf-read-4k", images: 2, imageBytes: 64 << 20, paced: true,
		tenants: []tenant{
			{image: 0, qd: 8, readPct: 100, zipf: true},
			{image: 1, qd: 8, readPct: 100, zipf: true},
		},
	},
	"mixed-tenants": {
		name: "mixed-tenants", images: 2, imageBytes: 32 << 20, qos: true,
		tenants: []tenant{
			{image: 0, rate: bulkRate, workers: 16, readPct: 70, zipf: true, writeClass: classWrite},
			{image: 1, rate: 500, workers: 4, writeClass: classTrickle},
		},
	},
}

// env is one booted, prefilled cluster.
type env struct {
	wl     workload
	c      *core.Cluster
	imgs   []*rbd.Image
	blocks *blocks
}

// setupTimes is one set-up's phases in seconds; they add up to Total.
type setupTimes struct {
	Boot    float64 `json:"boot_s"`
	Create  float64 `json:"create_s"`
	Prefill float64 `json:"prefill_s"`
	Flush   float64 `json:"flush_s"`
	Total   float64 `json:"total_s"`
	// Attempted and Failed count the set-up's writes and flush: a write
	// fails when the client gives up on it or when it is still in flight
	// as a stopped prefill is abandoned.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Skipped counts prefill writes never issued because the prefill
	// stopped.
	Skipped int64 `json:"skipped"`
	// Stall is the cluster's backpressure state when the first prefill
	// write outlived opDeadline, timed from the prefill's start.
	Stall *stallSnap `json:"stall,omitempty"`
}

// setupCap bounds the prefill of one set-up.
const setupCap = 30 * time.Second

// objectBytes is the rbd stripe unit and the store's object size.
const objectBytes = 1 << 20

// prefillChunk is the prefill write size: 16 stamped blocks per write.
const prefillChunk = 64 << 10

func clusterOptions(wl workload, tr *tracer) core.Options {
	opts := core.Options{
		OSDs:      3,
		Replicas:  2,
		PGs:       32,
		Transport: core.TransportInProc,
		// Devices and NVM banks are allocated whole, and a process that
		// has freed one cluster zeroes the next one's memory in full, so
		// both are sized to the workload. An OSD holds at most one
		// replica of each object, so twice the image bytes leaves room
		// for the store's own metadata. 128 MiB of NVM holds every PG's
		// 2 MiB op-log region on one OSD (the first OSD up briefly hosts
		// all PGs), the default 8 MiB read cache and the store's
		// metadata cache.
		DeviceBytes: 2 * int64(wl.images) * int64(wl.imageBytes),
		NVMBytes:    128 << 20,
		// 1 MiB objects, as the repository's figure harness uses: a repair
		// push carries a whole object and must fit a PG's 2 MiB op-log
		// region, which the rbd default of 4 MiB does not.
		ObjectBytes: objectBytes,
	}
	if wl.paced {
		p := device.PM1725a()
		p.SyncReads = true
		opts.DeviceProfile = &p
	}
	if wl.qos {
		opts.QoSRate = qosRate
	}
	if tr != nil {
		opts.WrapDevice = tr.wrapDevice
		opts.WrapTransport = tr.wrapTransport
	}
	return opts
}

// setup boots a cluster, creates the images and prefills every block
// with its stamp, then flushes the op logs into the store.
func setup(wl workload, tr *tracer) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	c, err := core.New(clusterOptions(wl, tr))
	if err != nil {
		return nil, st, fmt.Errorf("boot: %w", err)
	}
	e := &env{wl: wl, c: c, blocks: newBlocks(wl.images, wl.imageBytes)}
	var sessions []*client.Client
	for range wl.tenants {
		cl, err := c.Client()
		if err != nil {
			e.close()
			return nil, st, fmt.Errorf("open session: %w", err)
		}
		sessions = append(sessions, cl)
	}
	t1 := time.Now()
	for i := 0; i < wl.images; i++ {
		img, err := rbd.Create(sessions[i%len(sessions)], fmt.Sprintf("img%d", i), wl.imageBytes, rbd.CreateOptions{ObjectBytes: objectBytes})
		if err != nil {
			e.close()
			return nil, st, fmt.Errorf("create image %d: %w", i, err)
		}
		e.imgs = append(e.imgs, img)
	}
	t2 := time.Now()
	e.prefill(&st)
	t3 := time.Now()
	st.Attempted++
	if err := withCap(setupCap, c.FlushAll); err != nil {
		st.Failed++
	}
	t4 := time.Now()
	st.Boot = t1.Sub(t0).Seconds()
	st.Create = t2.Sub(t1).Seconds()
	st.Prefill = t3.Sub(t2).Seconds()
	st.Flush = t4.Sub(t3).Seconds()
	st.Total = t4.Sub(t0).Seconds()
	return e, st, nil
}

// prefill stamps every block of every image, 8 writes in flight per
// image, and counts its writes into st. A slow write only lengthens the
// phase: set-up outliers are kept, not dropped. A write the client gives
// up on counts as failed and is not issued again, and it stops the
// prefill, as does setupCap: no further write is issued, and writes still
// in flight after a grace period are abandoned and count as failed.
// Blocks never written stay zero, which the read check accepts for a
// block no write was acknowledged on.
func (e *env) prefill(st *setupTimes) {
	const inflight = 8
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		stopOnce sync.Once
		issued   atomic.Int64
		workers  []*recorder
	)
	stopped := make(chan struct{})
	halt := func() {
		stopOnce.Do(func() {
			stop.Store(true)
			close(stopped)
		})
	}
	chunks := e.wl.imageBytes / prefillChunk
	for i, img := range e.imgs {
		for w := uint64(0); w < inflight; w++ {
			rec := &recorder{}
			workers = append(workers, rec)
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, prefillChunk)
				for ch := w; ch < chunks && !stop.Load(); ch += inflight {
					off := ch * prefillChunk
					g := uint64(i)*e.blocks.perImage + off/blockBytes
					for b := uint64(0); b < prefillChunk/blockBytes; b++ {
						fillBlock(buf[b*blockBytes:(b+1)*blockBytes], g+b, 0, prefillSeq)
					}
					e.blocks.lockRange(g, prefillChunk/blockBytes)
					issued.Add(1)
					rec.inflight.Store(time.Now().UnixNano())
					err := img.WriteAt(buf, off)
					rec.inflight.Store(0)
					e.blocks.unlockRange(g, prefillChunk/blockBytes, err == nil)
					if err != nil {
						halt()
					}
					rec.mu.Lock()
					if !rec.sealed && err == nil {
						rec.ok++
					}
					rec.mu.Unlock()
				}
			}()
		}
	}

	wd := newWatchdog(e, workers, time.Now())
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-stopped:
	case <-time.After(setupCap):
		halt()
	}
	select {
	case <-done:
	case <-time.After(opDeadline + time.Second):
	}
	st.Stall = wd.stop()

	// A write that had not reported back by now, abandoned or not, counts
	// as failed.
	n, ok := issued.Load(), int64(0)
	for _, r := range workers {
		r.mu.Lock()
		r.sealed = true
		ok += r.ok
		r.mu.Unlock()
	}
	st.Attempted += n
	st.Failed += n - ok
	st.Skipped = int64(len(e.imgs))*int64(chunks) - n
}

// closeCap bounds tear-down, so a wedged cluster cannot hang the run.
const closeCap = 10 * time.Second

// close tears the cluster down and returns its memory to the OS before
// the next set-up.
func (e *env) close() {
	done := make(chan struct{})
	go func() {
		_ = e.c.Close() // tear-down errors do not change any measurement
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(closeCap):
	}
	runtime.GC()
	debug.FreeOSMemory()
}
