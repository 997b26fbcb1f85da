package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// opDeadline is how long one op may take before it counts as failed. A
// healthy op finishes in well under a millisecond; the client's own
// retry budget runs to many seconds, so a stall shows up here first.
const opDeadline = 2 * time.Second

// warmup runs the workload unmeasured before each window, so caches fill
// and lazy set-up finishes first.
const warmup = 2 * time.Second

// recorder is one worker's measurements. The worker and the collector
// share it under mu: a worker stuck in a stalled op may return after the
// window has been collected, and must then record nothing.
type recorder struct {
	mu         sync.Mutex
	sealed     bool
	lat        [nClasses][]int64
	at         [nClasses][]int64 // unix ns each lat sample started (or was due)
	late       []int64
	ok, failed int64
	mismatches int64
	// inflight is the start (unix ns) of the worker's current op, 0 when
	// idle; it is how the watchdog and the collector find stalls, also
	// those that began before the window.
	inflight atomic.Int64
}

// record counts one op. Its latency is kept whether it succeeded or not,
// so a stall shows as latency as well as in the failed count.
func (r *recorder) record(class int, start time.Time, lat, late time.Duration, ok, mismatch bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return
	}
	r.lat[class] = append(r.lat[class], int64(lat))
	r.at[class] = append(r.at[class], start.UnixNano())
	if late >= 0 {
		r.late = append(r.late, int64(late))
	}
	switch {
	case mismatch:
		r.mismatches++
		r.failed++
	case !ok || lat > opDeadline:
		r.failed++
	default:
		r.ok++
	}
}

// worker is the per-goroutine op state.
type worker struct {
	e       *env
	t       *tenant
	id      uint64 // writer id stamped into blocks
	index   int    // position within a closed loop's workers
	z       *zipf
	buf     []byte
	scratch []byte
	rec     *recorder
}

// do runs one op drawn from r and reports its class, success and whether
// a read returned bytes that no acknowledged or in-flight write put
// there.
func (w *worker) do(r *rng) (class int, ok, mismatch bool) {
	e, t := w.e, w.t
	n := e.blocks.perImage
	var blk uint64
	isRead := r.below(100) < uint64(t.readPct)
	switch {
	case t.zipf:
		blk = mix64(w.z.next(r.float())) % n
	case !isRead && t.qd > 0:
		blk = uint64(w.index) + uint64(t.qd)*r.below(n/uint64(t.qd))
	default:
		blk = r.below(n)
	}
	g := uint64(t.image)*n + blk
	img := e.imgs[t.image]
	bs := e.blocks
	if isRead {
		lo := bs.committed[g].Load()
		if err := img.ReadAt(w.buf, blk*blockBytes); err != nil {
			return classRead, false, false
		}
		return classRead, true, !valid(w.buf, w.scratch, g, lo, bs.issued[g].Load())
	}
	bs.locks[g].Lock()
	defer bs.locks[g].Unlock()
	seq := bs.seq.Add(1)
	bs.issued[g].Store(seq)
	fillBlock(w.buf, g, w.id, seq)
	if err := img.WriteAt(w.buf, blk*blockBytes); err != nil {
		return t.writeClass, false, false
	}
	bs.committed[g].Store(seq)
	return t.writeClass, true, false
}

// window is one measured stretch of a workload.
type window struct {
	start, end time.Time
	recs       []*recorder
	// unissued counts open-loop ops due inside the window that no worker
	// picked up before it closed (every worker was stuck).
	unissued int64
	stall    *stallSnap
}

// drive runs the workload's tenants for warmup+length and returns the
// measured window; onStart and onEnd run at its two edges, on the
// driving goroutine. Ops that outlive opDeadline count as failed; the
// first one to do so snapshots the cluster's backpressure counters. A
// worker still stuck when the window closes is abandoned after a grace
// period, its op counted as failed.
func drive(e *env, seed int64, length time.Duration, onStart, onEnd func()) *window {
	var (
		wg        sync.WaitGroup
		measuring atomic.Bool
		stop      atomic.Bool
		recs      []*recorder
		openSched []*openLoop
	)
	begin := time.Now()
	t0 := begin.Add(warmup)
	t1 := t0.Add(length)
	var z *zipf
	for ti := range e.wl.tenants {
		t := &e.wl.tenants[ti]
		if t.zipf && z == nil {
			z = newZipf(e.blocks.perImage, zipfTheta)
		}
		nw := t.qd
		var ol *openLoop
		if t.rate > 0 {
			nw = t.workers
			ol = &openLoop{begin: begin, interval: time.Duration(float64(time.Second) / t.rate), t0: t0, t1: t1}
			openSched = append(openSched, ol)
		}
		for wi := 0; wi < nw; wi++ {
			w := &worker{
				e: e, t: t, id: (uint64(ti)<<16 | uint64(wi)) + 1, index: wi, z: z,
				buf: make([]byte, blockBytes), scratch: make([]byte, blockBytes), rec: &recorder{},
			}
			recs = append(recs, w.rec)
			wg.Add(1)
			if ol != nil {
				go func() {
					defer wg.Done()
					if err := ol.run(w, uint64(seed), uint64(ti)); err != nil {
						// Without a clock the worker issues nothing; its
						// share of the schedule counts as unissued.
						fmt.Fprintf(os.Stderr, "perfbench: open-loop worker: %v\n", err)
					}
				}()
				continue
			}
			go func() {
				defer wg.Done()
				r := newRng(uint64(seed), uint64(ti), uint64(wi))
				for !stop.Load() {
					in := measuring.Load()
					start := time.Now()
					w.rec.inflight.Store(start.UnixNano())
					class, ok, mismatch := w.do(&r)
					w.rec.inflight.Store(0)
					if in {
						w.rec.record(class, start, time.Since(start), -1, ok, mismatch)
					}
				}
			}()
		}
	}

	wd := newWatchdog(e, recs, t0)
	time.Sleep(time.Until(t0))
	onStart()
	measuring.Store(true)
	w := &window{start: time.Now(), recs: recs}
	time.Sleep(time.Until(t1))
	measuring.Store(false)
	stop.Store(true)
	w.end = time.Now()
	onEnd()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(opDeadline + time.Second):
	}
	w.stall = wd.stop()
	for _, r := range recs {
		r.mu.Lock()
		r.sealed = true
		if r.inflight.Load() != 0 {
			r.failed++
		}
		r.mu.Unlock()
	}
	for _, ol := range openSched {
		w.unissued += ol.unissued()
	}
	return w
}

// openLoop schedules op k of a tenant at begin + k*interval. Workers
// claim ops in order; an op claimed late waits for nobody, and its
// latency runs from the due time, so a backlog behind a slow op shows up
// as latency rather than as a smaller offered load.
type openLoop struct {
	begin      time.Time
	interval   time.Duration
	t0, t1     time.Time
	next       atomic.Uint64
	inWindowed atomic.Int64
}

func (ol *openLoop) due(k uint64) time.Time {
	return ol.begin.Add(time.Duration(k) * ol.interval)
}

func (ol *openLoop) run(w *worker, seed, tenant uint64) error {
	clock, err := newAlarm()
	if err != nil {
		return err
	}
	defer clock.close()
	for {
		k := ol.next.Add(1) - 1
		due := ol.due(k)
		if !due.Before(ol.t1) {
			return nil
		}
		if err := clock.sleepUntil(due); err != nil {
			return err
		}
		in := !due.Before(ol.t0)
		if in {
			ol.inWindowed.Add(1)
		}
		start := time.Now()
		w.rec.inflight.Store(start.UnixNano())
		// Each op's randomness comes from its schedule index, so the
		// inputs are the same whichever worker issues it.
		r := newRng(seed, tenant, k, 0x6f70)
		class, ok, mismatch := w.do(&r)
		w.rec.inflight.Store(0)
		if in {
			w.rec.record(class, due, time.Since(due), start.Sub(due), ok, mismatch)
		}
	}
}

// unissued is the number of ops due inside the window that were never
// started.
func (ol *openLoop) unissued() int64 {
	due := int64(ol.t1.Sub(ol.t0) / ol.interval)
	return max(due-ol.inWindowed.Load(), 0)
}

// stallSnap is the cluster's backpressure state at the moment the first
// op overran its deadline (negative seconds: before the window opened).
type stallSnap struct {
	AfterWindowStartS float64   `json:"after_window_start_s"`
	InflightOps       int       `json:"inflight_ops"`
	ThrottleRejects   []int64   `json:"throttle_rejects"`
	ThrottleDelays    []int64   `json:"throttle_delays"`
	MaxOccupancy      []float64 `json:"max_occupancy"`
	OccupancyHW       []float64 `json:"occupancy_hw"`
	FullStalls        []int64   `json:"full_stalls"`
	Stalled           int       `json:"ops_over_deadline"`
}

// watchdog polls the workers' in-flight ops for deadline overruns.
type watchdog struct {
	quit chan struct{}
	done chan *stallSnap
}

func newWatchdog(e *env, recs []*recorder, t0 time.Time) *watchdog {
	wd := &watchdog{quit: make(chan struct{}), done: make(chan *stallSnap, 1)}
	go func() {
		var snap *stallSnap
		seen := map[*recorder]int64{}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-wd.quit:
				wd.done <- snap
				return
			case now := <-tick.C:
				inflight, overrun := 0, 0
				for _, r := range recs {
					s := r.inflight.Load()
					if s == 0 {
						continue
					}
					inflight++
					if now.UnixNano()-s > int64(opDeadline) && seen[r] != s {
						seen[r] = s
						overrun++
					}
				}
				if overrun > 0 && snap == nil {
					snap = snapshotStall(e, now.Sub(t0))
					snap.InflightOps = inflight
				}
				if snap != nil {
					snap.Stalled += overrun
				}
			}
		}
	}()
	return wd
}

func (wd *watchdog) stop() *stallSnap {
	close(wd.quit)
	return <-wd.done
}

func snapshotStall(e *env, since time.Duration) *stallSnap {
	s := &stallSnap{AfterWindowStartS: since.Seconds()}
	for i := 0; i < e.c.OSDs(); i++ {
		o := e.c.OSD(i)
		if o == nil {
			continue
		}
		s.ThrottleRejects = append(s.ThrottleRejects, o.ThrottleRejects.Load())
		s.ThrottleDelays = append(s.ThrottleDelays, o.ThrottleDelays.Load())
		s.MaxOccupancy = append(s.MaxOccupancy, o.MaxOccupancy())
		s.OccupancyHW = append(s.OccupancyHW, float64(o.OplogOccHW.Load())/10000)
		s.FullStalls = append(s.FullStalls, o.OplogSnapshot().FullStalls)
	}
	return s
}
