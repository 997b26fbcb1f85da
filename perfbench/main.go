// Command perfbench is rebloc's benchmark. One invocation boots an
// in-process proposed-mode cluster (3 OSDs, 2 replicas, 32 PGs, in-proc
// transport, block checksums on, scrub off), drives one named workload
// through the public block API, checks every byte it reads back against
// the stamp the last acknowledged write left there, and prints every
// metric by name and unit.
//
//	bash perfbench/run.sh --workload randwrite-4k --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	randwrite-4k   closed loop, 2 sessions x QD 8, uniform 4 KiB writes over
//	               two prefilled 32 MiB images on RAM devices: the paper's
//	               headline write path in its CPU-bound regime.
//	zipf-read-4k   closed loop, 2 sessions x QD 8, zipfian (theta 0.99) 4 KiB
//	               reads over two prefilled 64 MiB images on PM1725a-paced
//	               devices with SyncReads: read-cache hits and cold misses,
//	               with the write path idle.
//	mixed-tenants  open loop, two tenants on separate images with QoS
//	               admission on: a 70/30 zipfian read/write bulk tenant at a
//	               fixed rate and a 500 ops/s uniform-write trickle tenant,
//	               each op timed from its due time.
//
// With -trace 0 the run reports the end-to-end metrics of an unwrapped
// cluster. With -trace 1 it runs the workload twice, once unwrapped and
// once with timing wrappers around every device and connection, and
// reports the per-layer metrics of the wrapped run, the unwrapped run's
// per-class latencies, and the throughput the wrappers cost. The spans
// the wrappers record are written to -trace-dir.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// report with the host fingerprint, the seed, every setup's phases and
// every metric computed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// gcPercent bounds the heap at one and a half times the live data.
const gcPercent = 50

// runCap bounds a whole invocation. A run that cannot finish inside it
// exits non-zero without a result instead of hanging.
const runCap = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (randwrite-4k, zipf-read-4k, mixed-tenants)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured window length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || *seconds > 60:
		fmt.Fprintf(os.Stderr, "perfbench: -seconds %d outside [1, 60]\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d is neither 0 nor 1\n", *trace)
		return 2
	}
	// Devices and NVM banks make the live heap a gigabyte or more; the
	// default GOGC=100 would let garbage grow the process to twice that.
	debug.SetGCPercent(gcPercent)
	cfg := runConfig{
		wl:       wl,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		traceDir: *traceDir,
	}

	type outcome struct {
		rep *report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := execute(cfg)
		done <- outcome{rep, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(runCap):
		out.err = fmt.Errorf("run exceeded its %s cap", runCap)
	}
	if out.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, out.err)
		return 1
	}
	rep := out.rep
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode report: %v\n", err)
		return 1
	}
	fmt.Println(string(line))

	res, err := rep.result(cfg.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %d mismatches, %d checksum errors\n",
			wl.name, rep.Mismatches, rep.CksumErrors)
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the metric set the invocation promises: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one.
func (r *report) result(traced bool) (*result, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	res := &result{
		Correct:   r.Mismatches == 0 && r.CksumErrors == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	var missing []string
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		res.Metrics[n] = m
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}
