package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected. It returns the exit code:
// 0 when a result was printed (even one with failed checks), 1 when the
// benchmark could not run, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "host seconds to measure (whole rounds; at least one)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookupWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	}

	res, err := measure(def, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	if *traceFlag == 1 {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", def.name, *seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	}
	line, err := res.resultLine(*traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s seed=%d gomaxprocs=%d %s\n", def.name, *seed, runtime.GOMAXPROCS(0), res.digest)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// maxProcs caps GOMAXPROCS at the CPU count of the machine the bounds
// were set on, so at most two goroutines run at once.
const maxProcs = 2

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

// workload is one prepared workload: its inputs are fixed by the seed it
// was set up with, so every round does the same work and produces the
// same simulated outputs. A round runs every item once, in order.
type workload interface {
	// items names the items of a round (apps, cells, scenarios).
	items() []string
	// run runs item i. t is nil in untraced rounds.
	run(i int, t *tracer) (any, error)
	// summarize folds one round's item outputs, in item order.
	summarize(outs []any) *roundOut
	// check verifies the first round's outputs, outside the timed phase.
	// Every failure is counted, none aborts the run.
	check(first *roundOut, c *checks)
}

// roundOut is what one round produced.
type roundOut struct {
	ops         int     // the unit ops_per_s counts
	fencesPerOp float64 // simulated fences per op
	// sim holds every simulated output of the round, for check; its JSON
	// encoding is hashed into the digest, so it must be a pure function
	// of the seed.
	sim any
	// layer holds the round's per-layer counts and simulated figures,
	// keyed by per-layer metric name.
	layer map[string]float64
}

// workloadDef names a workload and how to set it up for a seed.
type workloadDef struct {
	name  string
	setup func(seed int64) (workload, error)
}

var workloads = []workloadDef{
	{"figures", setupFigures},
	{"kv-sweep", setupKVSweep},
	{"recovery", setupRecovery},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// checks counts output checks; failures go to stderr with their reason.
type checks struct {
	attempted, failed int
	log               io.Writer
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.log != nil {
			fmt.Fprintf(c.log, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB/round"},
	{"sim_fences_per_op", "fences/op"},
}

// perLayer are the metrics a --trace 1 run reports. Times and
// allocations are per traced round; counts are per round. A layer a
// workload does not call reads 0.
var perLayer = []metricDef{
	{"apps.s", "s/round"},
	{"apps.alloc_mb", "MB/round"},
	{"trace.s", "s/round"},
	{"trace.alloc_mb", "MB/round"},
	{"trace.bytes_per_event", "B/event"},
	{"epoch.s", "s/round"},
	{"epoch.alloc_mb", "MB/round"},
	{"pmsan.s", "s/round"},
	{"pmsan.alloc_mb", "MB/round"},
	{"cachesim.s", "s/round"},
	{"cachesim.alloc_mb", "MB/round"},
	{"hops.s", "s/round"},
	{"hops.alloc_mb", "MB/round"},
	{"trace.events", "count/round"},
	{"pmem.stores", "count/round"},
	{"pmem.flushes", "count/round"},
	{"pmem.fences", "count/round"},
	{"pmem.lines_persisted", "count/round"},
	{"pmsan.errors", "count/round"},
	{"kvservice.compacting.s", "s/round"},
	{"kvservice.quiet.s", "s/round"},
	{"kvservice.alloc_mb", "MB/round"},
	{"persist.group_commits", "count/round"},
	{"kvservice.compactions", "count/round"},
	{"kvservice.copied_mb", "MB/round"},
	{"kvservice.rejects", "count/round"},
	{"trace.events_recorded", "count/round"},
	{"trace.read_frac", "ratio"},
	{"scenario.s", "s/round"},
	{"scenario.alloc_mb", "MB/round"},
	{"scenario.crash_cycles", "count/round"},
	{"scenario.midbatch_aborts", "count/round"},
	{"scenario.checks", "count/round"},
	{"scenario.violations", "count/round"},
	{"scenario.san_errors", "count/round"},
	{"sim_p99_us", "us"},
	{"sim_space_amp", "ratio"},
	{"sim_hops_norm", "ratio"},
	{"fail_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.untraced_s", "s/round"},
	{"bench.host_slowdown", "ratio"},
	{"bench.raw_ops_per_s", "ops/s"},
}

// timedLayers maps a per-layer metric prefix to the span names it sums.
var timedLayers = map[string][]string{
	"apps":                 {"apps"},
	"trace":                {"trace"},
	"epoch":                {"epoch"},
	"pmsan":                {"pmsan"},
	"cachesim":             {"cachesim"},
	"hops":                 {"hops"},
	"kvservice.compacting": {"kvservice.compacting"},
	"kvservice.quiet":      {"kvservice.quiet"},
	"kvservice":            {"kvservice.compacting", "kvservice.quiet"},
	"scenario":             {"scenario"},
}

// result is one measured run.
type result struct {
	checks   checks
	digest   string
	endToEnd map[string]float64
	perLayer map[string]float64
	spans    []span
}

// measure sets the workload up setupReps times, runs whole rounds for at
// least d of host time, and checks the first round's outputs.
//
// Each item starts after a forced GC, so it pays for collecting its own
// garbage rather than its predecessor's, and after one run of the host
// kernel (calib.go). An item's time is its median over rounds, and a
// round's time is the sum of its items' medians, which keeps a burst of
// load from another process out of the figure. A traced run alternates
// untraced and traced rounds so the tracing overhead is measured on the
// same process state.
func measure(def workloadDef, seed int64, d time.Duration, traced bool) (*result, error) {
	var (
		w        workload
		setupDur []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		ww, err := def.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupDur = append(setupDur, time.Since(t0).Seconds())
		w = ww
	}

	res := &result{checks: checks{log: os.Stderr}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ids := w.items()
	canReset := resetPeakRSS()
	var roundRSS []float64
	plainDur := make([][]float64, len(ids)) // per item, over untraced rounds
	tracedDur := make([][]float64, len(ids))
	var kernel []float64 // hostKernel before each item
	var (
		first      *roundOut
		firstSum   [32]byte
		rounds     int
		tRounds    int
		untracedNS int64
	)
	runtime.GC()
	alloc0 := heapAllocs()
	start := time.Now()
	for ; ; rounds++ {
		var t *tracer
		if traced && rounds%2 == 1 {
			t = tr
		}
		outs := make([]any, len(ids))
		runtime.GC()
		resetPeakRSS()
		for i, id := range ids {
			runtime.GC()
			kernel = append(kernel, hostKernel())
			var from int64
			if t != nil {
				from = t.since()
			}
			t0 := time.Now()
			out, err := w.run(i, t)
			dt := time.Since(t0).Seconds()
			if err != nil {
				return nil, fmt.Errorf("round %d: %s: %w", rounds, id, err)
			}
			outs[i] = out
			if t != nil {
				to := t.since()
				untracedNS += (to - from) - topLevelCover(t.spans, from, to)
				tracedDur[i] = append(tracedDur[i], dt)
			} else {
				plainDur[i] = append(plainDur[i], dt)
			}
		}
		if t != nil {
			tRounds++
		} else {
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			roundRSS = append(roundRSS, rss)
		}
		out := w.summarize(outs)
		sum, err := hashSim(out.sim)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstSum = out, sum
		} else {
			res.checks.expect(sum == firstSum, "round %d reproduces the simulated outputs of round 0", rounds)
		}
		if time.Since(start) >= d && (!traced || rounds%2 == 1) {
			rounds++
			break
		}
	}
	allocPerRound := float64(heapAllocs()-alloc0) / float64(rounds)
	// Each round's peak is its own when Linux lets the mark be reset;
	// otherwise every reading is the peak so far, and the last is the
	// run's.
	rss := median(roundRSS)
	if !canReset {
		rss = roundRSS[len(roundRSS)-1]
	}
	// slow is how much slower than the reference the host ran; every host
	// time below is divided by it (see calib.go).
	slow := median(kernel) / hostKernelRefS
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d rounds in %.1fs, median round %.3fs, host slowdown %.3f, normalized round %.3fs\n",
		def.name, seed, rounds, time.Since(start).Seconds(), roundTime(plainDur), slow, roundTime(plainDur)/slow)

	w.check(first, &res.checks)
	res.digest = hex.EncodeToString(firstSum[:])

	res.endToEnd = map[string]float64{
		"setup_s":           median(setupDur) / slow,
		"ops_per_s":         float64(first.ops) / (roundTime(plainDur) / slow),
		"peak_rss_mb":       rss,
		"alloc_mb":          allocPerRound / 1e6,
		"sim_fences_per_op": first.fencesPerOp,
	}
	if traced {
		res.spans = tr.spans
		res.perLayer = perLayerMetrics(tr.spans, tRounds, slow, first.layer)
		res.perLayer["bench.trace_overhead_frac"] = 1 - roundTime(plainDur)/roundTime(tracedDur)
		res.perLayer["bench.untraced_s"] = float64(untracedNS) / 1e9 / float64(tRounds) / slow
		res.perLayer["bench.host_slowdown"] = slow
		res.perLayer["bench.raw_ops_per_s"] = float64(first.ops) / roundTime(plainDur)
		res.perLayer["fail_frac"] = float64(res.checks.failed) / float64(max(res.checks.attempted, 1))
	}
	return res, nil
}

// roundTime is the sum over items of each item's median duration.
func roundTime(perItem [][]float64) float64 {
	var sum float64
	for _, d := range perItem {
		sum += median(d)
	}
	return sum
}

// perLayerMetrics folds span totals into per-round layer metrics, host
// times divided by the host slowdown, and merges the round's counts.
// Names a workload does not produce read 0.
func perLayerMetrics(spans []span, rounds int, slow float64, counts map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	tot := totals(spans)
	for prefix, names := range timedLayers {
		var ns, alloc int64
		for _, n := range names {
			ns += tot.selfNS[n]
			alloc += tot.selfAlloc[n]
		}
		if _, ok := out[prefix+".s"]; ok {
			out[prefix+".s"] = float64(ns) / 1e9 / float64(rounds) / slow
		}
		if _, ok := out[prefix+".alloc_mb"]; ok {
			out[prefix+".alloc_mb"] = float64(alloc) / 1e6 / float64(rounds)
		}
	}
	for k, v := range counts {
		out[k] = v
	}
	return out
}

// resultLine renders the final JSON line: the end-to-end metrics, or the
// per-layer ones for a traced run.
func (r *result) resultLine(traced bool) (string, error) {
	defs, vals := endToEnd, r.endToEnd
	if traced {
		defs, vals = perLayer, r.perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s has no finite value", m.name)
		}
		ms[m.name] = value{v, m.unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.checks.failed == 0, r.checks.attempted, r.checks.failed, ms})
	return string(buf), err
}

func hashSim(v any) ([32]byte, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, fmt.Errorf("encode simulated outputs: %w", err)
	}
	return sha256.Sum256(buf), nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// resetPeakRSS restarts the kernel's peak-resident-set mark (VmHWM) from
// the current resident set. It reports whether the kernel allows it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
