package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupRuns is how many times an untraced run sets the cluster up;
// setup_s is the median, and the last cluster runs the workload.
const setupRuns = 3

type runConfig struct {
	wl       workload
	seed     int64
	window   time.Duration
	traced   bool
	traceDir string
}

// report is everything one invocation measured; it is printed in full
// before the result line.
type report struct {
	Workload    string       `json:"workload"`
	Trace       bool         `json:"trace"`
	Host        host         `json:"host"`
	Setups      []setupTimes `json:"setups"`
	Metrics     metricSet    `json:"metrics"`
	Attempted   int64        `json:"attempted"`
	Failed      int64        `json:"failed"`
	Mismatches  int64        `json:"mismatches"`
	CksumErrors int64        `json:"cksum_errors"`
	Stall       *stallSnap   `json:"stall,omitempty"`
	TraceFile   string       `json:"trace_file,omitempty"`
	Spans       int64        `json:"spans,omitempty"`
	// Slices splits the measured window into one-second slices, so a
	// stall can be placed in time.
	Slices []slice `json:"slices"`
	// WindowP99us is the p99 over the whole window, pauses included.
	WindowP99us float64 `json:"window_p99_us"`
}

// slice is one second of a measured window.
type slice struct {
	Ops   int     `json:"ops"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// measurement is one measured window plus its post-window checks.
type measurement struct {
	secs                   float64
	lat                    [nClasses][]int64 // sorted, ns
	all, late              []int64           // sorted, ns
	ok, failed, mismatches int64
	attempted              int64
	reads, writes          int64
	proc                   procStats
	cs                     clusterStats
	flushedBytes           int64 // device bytes written in the window and the flush after it
	occHW                  float64
	replAck                time.Duration
	slices                 []slice
	tr                     *traceSnap
	stall                  *stallSnap
	cksumErrors            int64
}

func execute(cfg runConfig) (*report, error) {
	rep := &report{
		Workload: cfg.wl.name,
		Trace:    cfg.traced,
		Host:     fingerprint(cfg.seed),
		Metrics:  metricSet{},
	}
	if !cfg.traced {
		var e *env
		for i := 0; i < setupRuns; i++ {
			if e != nil {
				e.close()
			}
			var st setupTimes
			var err error
			if e, st, err = setup(cfg.wl, nil); err != nil {
				return nil, fmt.Errorf("setup %d: %w", i, err)
			}
			rep.addSetupRun(st)
		}
		m := measure(e, cfg, nil)
		e.close()
		rep.add(m)
		rep.addSetup()
		rep.Metrics.set("rss_peak_mb", float64(procKB("/proc/self/status", "VmHWM:"))/1024)
		return rep, nil
	}

	// Traced: an unwrapped reference run, then the same workload on a
	// cluster whose devices and connections are wrapped.
	e, st, err := setup(cfg.wl, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.addSetupRun(st)
	ref := measure(e, cfg, nil)
	e.close()
	rep.add(ref)
	rep.addSetup()

	// The traced set-up is listed and counted, but setup_s and its phases
	// come from the untraced one above.
	tr := newTracer()
	if e, st, err = setup(cfg.wl, tr); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	rep.addSetupRun(st)
	m := measure(e, cfg, tr)
	e.close()
	rep.count(m)
	rep.addLayers(m)
	rep.Metrics.set("trace.overhead", 1-ratio(float64(m.ok)/m.secs, float64(ref.ok)/ref.secs))
	rep.Spans = tr.nspans.Load()
	path, err := tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.wl.name, cfg.seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.TraceFile = path
	return rep, nil
}

// measure drives one window on e, flushes, then reads every block back
// and checks it. tr, when non-nil, records only inside the window.
func measure(e *env, cfg runConfig, tr *tracer) *measurement {
	m := &measurement{}
	var cs0 clusterStats
	var p0 procStats
	var ts0 traceSnap
	onStart := func() {
		resetOccupancyHW(e.c)
		cs0, p0 = readCluster(e.c), readProc()
		if tr != nil {
			ts0 = tr.snap()
			tr.on.Store(true)
		}
	}
	onEnd := func() {
		if tr != nil {
			tr.on.Store(false)
			d := tr.snap().sub(ts0)
			m.tr = &d
		}
		m.proc = readProc().sub(p0)
		m.cs = readCluster(e.c).sub(cs0)
		m.occHW = occupancyHW(e.c)
		m.replAck = replAckMax(e.c)
	}
	w := drive(e, cfg.seed, cfg.window, onStart, onEnd)
	m.secs = w.end.Sub(w.start).Seconds()
	m.stall = w.stall
	for _, r := range w.recs {
		for c := range r.lat {
			m.lat[c] = append(m.lat[c], r.lat[c]...)
			m.all = append(m.all, r.lat[c]...)
		}
		m.late = append(m.late, r.late...)
		m.ok += r.ok
		m.failed += r.failed
		m.mismatches += r.mismatches
		m.reads += int64(len(r.lat[classRead]))
		m.writes += int64(len(r.lat[classWrite]) + len(r.lat[classTrickle]))
	}
	m.slices = slices(w)
	m.failed += w.unissued
	m.attempted = m.ok + m.failed
	for c := range m.lat {
		m.lat[c] = sortedCopy(m.lat[c])
	}
	m.all, m.late = sortedCopy(m.all), sortedCopy(m.late)

	if err := withCap(30*time.Second, e.c.FlushAll); err != nil {
		m.failed++
		m.attempted++
	}
	m.flushedBytes = readCluster(e.c).sub(cs0).devBytesWritten
	att, failed, mism := readback(e)
	m.attempted += att
	m.failed += failed
	m.mismatches += mism
	m.cksumErrors = readCluster(e.c).cksumErrors
	return m
}

// slices buckets a window's latencies by the second they started in.
func slices(w *window) []slice {
	n := int((w.end.Sub(w.start) + time.Second/2) / time.Second)
	buckets := make([][]int64, max(n, 1))
	for _, r := range w.recs {
		for c := range r.lat {
			for i, lat := range r.lat[c] {
				b := int((r.at[c][i] - w.start.UnixNano()) / int64(time.Second))
				b = min(max(b, 0), len(buckets)-1)
				buckets[b] = append(buckets[b], lat)
			}
		}
	}
	out := make([]slice, len(buckets))
	for i, b := range buckets {
		b = sortedCopy(b)
		out[i] = slice{Ops: len(b), P50us: quantile(b, 0.5), P99us: quantile(b, 0.99), MaxUs: quantile(b, 1)}
	}
	return out
}

// withCap runs f, giving up (with an error) after d.
func withCap(d time.Duration, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("gave up after %s", d)
	}
}

// readback reads every block after the window's flush and checks each
// holds the stamp of the last acknowledged write (or of a later write
// whose outcome is unknown because it failed). Reading them all costs
// well under a second and catches a lost write wherever it landed.
func readback(e *env) (attempted, failed, mismatches int64) {
	total := int64(e.blocks.perImage) * int64(e.wl.images)
	var next, nFailed, nMismatch, nDone atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, scratch := make([]byte, blockBytes), make([]byte, blockBytes)
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				g := uint64(i)
				img, blk := e.imgs[g/e.blocks.perImage], g%e.blocks.perImage
				start := time.Now()
				err := img.ReadAt(buf, blk*blockBytes)
				switch {
				case err != nil || time.Since(start) > opDeadline:
					nFailed.Add(1)
				case !valid(buf, scratch, g, e.blocks.committed[g].Load(), e.blocks.issued[g].Load()):
					nMismatch.Add(1)
				}
				nDone.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
	}
	// Reads that never returned count as failed.
	unfinished := total - nDone.Load()
	return total, nFailed.Load() + nMismatch.Load() + unfinished, nMismatch.Load()
}

// add records a window's end-to-end and per-class numbers and its layer
// numbers, and counts its ops into the report.
func (rep *report) add(m *measurement) {
	ms := rep.Metrics
	ms.set("ops_per_s", float64(m.ok)/m.secs)
	// Medians over one-second slices: a whole-window percentile swings
	// with how many of the process's millisecond-scale pauses (GC cycles,
	// scheduling bursts) land in the window. Every slice keeps well over
	// ten samples beyond its p99.
	// A slice in which no op started, because every worker was stuck in a
	// stalled op, has no latency of its own; the stalled ops count in the
	// slice they started in.
	var p50s, p99s []float64
	for _, s := range m.slices {
		if s.Ops > 0 {
			p50s, p99s = append(p50s, s.P50us), append(p99s, s.P99us)
		}
	}
	ms.set("p50_us", median(p50s))
	ms.set("p99_us", median(p99s))
	// With no completed op the cost per op is unbounded; the window's
	// whole CPU time is reported as its lower bound rather than 0.
	ms.set("cpu_us_per_op", float64(m.proc.cpu.Microseconds())/float64(max(m.ok, 1)))
	ms.set("read_p50_us", quantile(m.lat[classRead], 0.50))
	ms.set("read_p99_us", quantile(m.lat[classRead], 0.99))
	ms.set("write_p50_us", quantile(m.lat[classWrite], 0.50))
	ms.set("write_p99_us", quantile(m.lat[classWrite], 0.99))
	ms.set("trickle_p50_us", quantile(m.lat[classTrickle], 0.50))
	ms.set("trickle_p99_us", quantile(m.lat[classTrickle], 0.99))
	ms.set("waf", ratio(float64(m.flushedBytes), float64(m.writes*blockBytes)))
	ms.set("error_rate", ratio(float64(m.failed), float64(m.attempted)))
	rep.Slices = m.slices
	rep.WindowP99us = quantile(m.all, 0.99)
	rep.count(m)
	rep.addLayers(m)
}

// count folds a window's op counts, check results and stall into the
// report.
func (rep *report) count(m *measurement) {
	rep.Attempted += m.attempted
	rep.Failed += m.failed
	rep.Mismatches += m.mismatches
	rep.CksumErrors = max(rep.CksumErrors, m.cksumErrors)
	if m.stall != nil {
		rep.Stall = m.stall
	}
}

// addLayers records the per-layer numbers of a window. The device and
// send timings exist only for a traced window.
func (rep *report) addLayers(m *measurement) {
	ms := rep.Metrics
	ops, reads, writes := float64(m.ok), float64(m.reads), float64(m.writes)
	cs := m.cs
	ms.set("messenger.msgs_per_op", ratio(float64(cs.msgrSends), ops))
	ms.set("messenger.repl_ops_per_frame", ratio(float64(cs.replOps), float64(cs.replFrames)))
	ms.set("qos.delays_per_kop", ratio(1000*float64(cs.throttleDelays), ops))
	ms.set("qos.rejects_per_kop", ratio(1000*float64(cs.throttleRejects), ops))
	ms.set("oplog.occupancy_hw", m.occHW)
	ms.set("osd.repl_ack_us_max", float64(m.replAck.Nanoseconds())/1e3)
	ms.set("oplog.appends_per_group", ratio(float64(cs.appends), float64(cs.groups)))
	ms.set("nvm.persists_per_write", ratio(float64(cs.persists), writes))
	ms.set("oplog.read_hit_ratio", ratio(float64(cs.readHits), float64(cs.readHits+cs.readMisses)))
	ms.set("oplog.full_stalls", float64(cs.fullStalls))
	ms.set("flush.entries_per_batch", ratio(float64(cs.flushEntries), float64(cs.flushBatches)))
	ms.set("flush.coalesce_ratio", ratio(float64(cs.flushEntries), float64(cs.flushStoreOp)))
	ms.set("readcache.hit_ratio", ratio(float64(cs.rcHits), float64(cs.rcHits+cs.rcMisses)))
	ms.set("readcache.evictions_per_op", ratio(float64(cs.rcEvictions), ops))
	ms.set("readcache.invalidations_per_op", ratio(float64(cs.rcInvalidations), ops))
	ms.set("readcache.admits_per_op", ratio(float64(cs.rcAdmits), ops))
	ms.set("readcache.hits_per_admit", ratio(float64(cs.rcHits), float64(cs.rcAdmits)))
	ms.set("cos.cksum_errors", float64(m.cksumErrors))
	ms.set("proc.allocs_per_op", ratio(m.proc.allocs, ops))
	ms.set("proc.gc_cpu_frac", ratio(m.proc.gcCPU, m.proc.totalCPU))
	ms.set("loadgen.late_p99_us", quantile(m.late, 0.99))
	if t := m.tr; t != nil {
		ms.set("client.attempts_per_op", ratio(float64(t.clientReqs), ops))
		ms.set("messenger.send_us_per_op", ratio(float64(t.sendNs)/1e3, ops))
		ms.set("device.write_calls_per_write", ratio(float64(t.wCalls), writes))
		ms.set("device.segs_per_call", ratio(float64(t.wSegs), float64(t.wCalls)))
		ms.set("device.write_us_per_write", ratio(float64(t.wNs)/1e3, writes))
		ms.set("device.read_calls_per_read", ratio(float64(t.rCalls), reads))
		ms.set("device.read_us_per_call", ratio(float64(t.rNs)/1e3, float64(t.rCalls)))
		ms.set("device.flushes_per_kop", ratio(1000*float64(t.fCalls), ops))
	}
}

// addSetupRun lists one set-up and counts its writes into the report.
func (rep *report) addSetupRun(st setupTimes) {
	rep.Setups = append(rep.Setups, st)
	rep.Attempted += st.Attempted
	rep.Failed += st.Failed
}

// addSetup records setup_s as the median set-up's total and that set-up's
// phases, so the phases add up to setup_s.
func (rep *report) addSetup() {
	s := append([]setupTimes(nil), rep.Setups...)
	sort.Slice(s, func(i, j int) bool { return s[i].Total < s[j].Total })
	mid := s[len(s)/2]
	ms := rep.Metrics
	ms.set("setup_s", mid.Total)
	ms.set("setup.boot_s", mid.Boot)
	ms.set("setup.create_s", mid.Create)
	ms.set("setup.prefill_s", mid.Prefill)
	ms.set("setup.flush_s", mid.Flush)
}
