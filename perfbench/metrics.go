package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rebloc/internal/core"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units names every metric the benchmark can report.
var units = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"p50_us":        "us",
	"p99_us":        "us",
	"cpu_us_per_op": "us",
	"rss_peak_mb":   "MB",

	"read_p50_us":    "us",
	"read_p99_us":    "us",
	"write_p50_us":   "us",
	"write_p99_us":   "us",
	"trickle_p50_us": "us",
	"trickle_p99_us": "us",
	"waf":            "ratio",
	"error_rate":     "ratio",

	"client.attempts_per_op":         "count",
	"messenger.msgs_per_op":          "count",
	"messenger.send_us_per_op":       "us",
	"messenger.repl_ops_per_frame":   "count",
	"qos.delays_per_kop":             "count",
	"qos.rejects_per_kop":            "count",
	"oplog.occupancy_hw":             "ratio",
	"osd.repl_ack_us_max":            "us",
	"oplog.appends_per_group":        "count",
	"nvm.persists_per_write":         "count",
	"oplog.read_hit_ratio":           "ratio",
	"oplog.full_stalls":              "count",
	"flush.entries_per_batch":        "count",
	"flush.coalesce_ratio":           "ratio",
	"readcache.hit_ratio":            "ratio",
	"readcache.evictions_per_op":     "count",
	"readcache.invalidations_per_op": "count",
	"readcache.admits_per_op":        "count",
	"readcache.hits_per_admit":       "ratio",
	"device.write_calls_per_write":   "count",
	"device.segs_per_call":           "count",
	"device.write_us_per_write":      "us",
	"device.read_calls_per_read":     "count",
	"device.read_us_per_call":        "us",
	"device.flushes_per_kop":         "count",
	"cos.cksum_errors":               "count",
	"proc.allocs_per_op":             "count",
	"proc.gc_cpu_frac":               "ratio",
	"loadgen.late_p99_us":            "us",
	"setup.boot_s":                   "s",
	"setup.create_s":                 "s",
	"setup.prefill_s":                "s",
	"setup.flush_s":                  "s",
	"trace.overhead":                 "ratio",
}

// endToEnd is what an untraced run promises. Each of these has samples
// on every workload, is never zero, and repeats across runs within its
// bound.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_us", "cpu_us_per_op", "rss_peak_mb"}

// perLayer is what a traced run promises. The per-class latencies, WAF
// and error rate sit here because some workloads have no samples for
// them (no reads in randwrite-4k, no writes in zipf-read-4k, a trickle
// tenant only in mixed-tenants, no errors in a healthy run); they read 0
// where a workload has no samples. p99_us sits here because on the open
// loop it moves by more than any usable bound from run to run.
var perLayer = []string{
	"p99_us", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us",
	"trickle_p50_us", "trickle_p99_us", "waf", "error_rate",
	"client.attempts_per_op",
	"messenger.msgs_per_op", "messenger.send_us_per_op", "messenger.repl_ops_per_frame",
	"qos.delays_per_kop", "qos.rejects_per_kop", "oplog.occupancy_hw",
	"osd.repl_ack_us_max",
	"oplog.appends_per_group", "nvm.persists_per_write", "oplog.read_hit_ratio", "oplog.full_stalls",
	"flush.entries_per_batch", "flush.coalesce_ratio",
	"readcache.hit_ratio", "readcache.evictions_per_op", "readcache.invalidations_per_op",
	"readcache.admits_per_op", "readcache.hits_per_admit",
	"device.write_calls_per_write", "device.segs_per_call", "device.write_us_per_write",
	"device.read_calls_per_read", "device.read_us_per_call", "device.flushes_per_kop",
	"cos.cksum_errors",
	"proc.allocs_per_op", "proc.gc_cpu_frac", "loadgen.late_p99_us",
	"setup.boot_s", "setup.create_s", "setup.prefill_s", "setup.flush_s",
	"trace.overhead",
}

// metricSet collects values by name, attaching units from the table.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// ratio is a/b, or 0 when nothing was counted below.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// host is the fingerprint every report carries.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MemTotalMB int64  `json:"mem_total_mb"`
	GoVersion  string `json:"go_version"`
	Transport  string `json:"transport"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MemTotalMB: procKB("/proc/meminfo", "MemTotal:") / 1024,
		GoVersion:  runtime.Version(),
		Transport:  "inproc",
		Seed:       seed,
	}
}

// procKB reads one "<key> <n> kB" line of a /proc file (0 if absent).
func procKB(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				n, _ := strconv.ParseInt(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// procStats is the process-wide cost counters: CPU from getrusage (user
// plus system, so the cluster and the load generator count together) and
// the Go runtime's allocation and GC CPU totals.
type procStats struct {
	cpu      time.Duration
	allocs   float64
	gcCPU    float64
	totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := procStats{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	s.allocs, s.gcCPU, s.totalCPU = val(0), val(1), val(2)
	return s
}

func (s procStats) sub(o procStats) procStats {
	return procStats{cpu: s.cpu - o.cpu, allocs: s.allocs - o.allocs, gcCPU: s.gcCPU - o.gcCPU, totalCPU: s.totalCPU - o.totalCPU}
}

// clusterStats sums the exported counters of every OSD, read cache, NVM
// bank and device of a cluster.
type clusterStats struct {
	msgrSends                                int64
	throttleDelays, throttleRejects          int64
	replFrames, replOps                      int64
	flushBatches, flushEntries, flushStoreOp int64
	cksumErrors                              int64
	appends, groups, readHits, readMisses    int64
	fullStalls                               int64
	rcHits, rcMisses, rcAdmits, rcEvictions  int64
	rcInvalidations                          int64
	persists                                 int64
	devBytesWritten                          int64
}

func readCluster(c *core.Cluster) clusterStats {
	s := clusterStats{msgrSends: c.MessengerStats().Sends.Load()}
	for i := 0; i < c.OSDs(); i++ {
		o := c.OSD(i)
		if o == nil {
			continue
		}
		s.throttleDelays += o.ThrottleDelays.Load()
		s.throttleRejects += o.ThrottleRejects.Load()
		s.replFrames += o.ReplBatchFrames.Load()
		s.replOps += o.ReplBatchedOps.Load()
		s.flushBatches += o.FlushBatches.Load()
		s.flushEntries += o.FlushedEntries.Load()
		s.flushStoreOp += o.FlushStoreOps.Load()
		s.cksumErrors += o.CksumReadErrors.Load()
		ol := o.OplogSnapshot()
		s.appends += ol.Appends
		s.groups += ol.Groups
		s.readHits += ol.ReadHits
		s.readMisses += ol.ReadMisses
		s.fullStalls += ol.FullStalls
		if rc := o.ReadCache(); rc != nil {
			st := rc.Stats()
			s.rcHits += st.Hits.Load()
			s.rcMisses += st.Misses.Load()
			s.rcAdmits += st.Admits.Load()
			s.rcEvictions += st.Evictions.Load()
			s.rcInvalidations += st.Invalidations.Load()
		}
		ops, _ := c.Bank(i).PersistStats()
		s.persists += ops
	}
	for _, d := range c.DeviceSnapshots() {
		s.devBytesWritten += d.BytesWritten
	}
	return s
}

func (s clusterStats) sub(o clusterStats) clusterStats {
	return clusterStats{
		msgrSends:       s.msgrSends - o.msgrSends,
		throttleDelays:  s.throttleDelays - o.throttleDelays,
		throttleRejects: s.throttleRejects - o.throttleRejects,
		replFrames:      s.replFrames - o.replFrames,
		replOps:         s.replOps - o.replOps,
		flushBatches:    s.flushBatches - o.flushBatches,
		flushEntries:    s.flushEntries - o.flushEntries,
		flushStoreOp:    s.flushStoreOp - o.flushStoreOp,
		cksumErrors:     s.cksumErrors - o.cksumErrors,
		appends:         s.appends - o.appends,
		groups:          s.groups - o.groups,
		readHits:        s.readHits - o.readHits,
		readMisses:      s.readMisses - o.readMisses,
		fullStalls:      s.fullStalls - o.fullStalls,
		rcHits:          s.rcHits - o.rcHits,
		rcMisses:        s.rcMisses - o.rcMisses,
		rcAdmits:        s.rcAdmits - o.rcAdmits,
		rcEvictions:     s.rcEvictions - o.rcEvictions,
		rcInvalidations: s.rcInvalidations - o.rcInvalidations,
		persists:        s.persists - o.persists,
		devBytesWritten: s.devBytesWritten - o.devBytesWritten,
	}
}

// occupancyHW is the highest op-log occupancy high-water mark across
// OSDs, as a fraction of a PG's log region.
func occupancyHW(c *core.Cluster) float64 {
	var hw float64
	for i := 0; i < c.OSDs(); i++ {
		if o := c.OSD(i); o != nil {
			hw = max(hw, float64(o.OplogOccHW.Load())/10000)
		}
	}
	return hw
}

// resetOccupancyHW clears every OSD's occupancy high-water gauge so the
// next reading covers only the measured window.
func resetOccupancyHW(c *core.Cluster) {
	for i := 0; i < c.OSDs(); i++ {
		if o := c.OSD(i); o != nil {
			o.OplogOccHW.Set(0)
		}
	}
}

// replAckMax is the slowest replication-ack EWMA any OSD sees to a peer.
func replAckMax(c *core.Cluster) time.Duration {
	var m time.Duration
	for i := 0; i < c.OSDs(); i++ {
		if o := c.OSD(i); o != nil {
			for _, d := range o.PeerAckLatencies() {
				m = max(m, d)
			}
		}
	}
	return m
}

// quantile returns the q-quantile of sorted (nearest rank), in
// microseconds.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
