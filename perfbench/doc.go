// Command perfbench is the repository benchmark: one process runs one
// named workload at one seed, times it on the host, checks its outputs,
// and prints every metric with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload figures|kv-sweep|recovery \
//		--seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ones with --trace 1. The line before it is
// the digest of every simulated output. Progress and failed checks go to
// standard error. Tests: cd perfbench && go test ./...
//
// # Two clocks
//
// Host time (wall-clock, heap allocation, resident memory) is what the
// tool costs to run, and it is what performance work on this repository
// optimises. Simulated time and simulated counts (fences per op, service
// p99 in simulated µs, HOPS speed-ups) are the paper's result; every
// sim_* metric is a pure function of the seed, and a change that moves
// one is a behaviour change and must say so. The digest line hashes every
// simulated output of a round (suite reports, sweep rows, scenario
// reports), so a host-only change proves it left them
// alone by printing the same digest for the same seed. The digest does
// not depend on GOMAXPROCS.
//
// # Workloads
//
// figures is the paper's evaluation, what whisper, wanalyze -dir and
// hopssim do together: for each of the eleven suite apps at its default
// size, whisper.RunStream generates the trace (apps, alloc, nvml,
// mnemosyne, pmfs, persist, pmem, the inline streaming epoch analysis and
// the v2 encode), and over that trace the benchmark runs trace.Decode,
// epoch.AnalyzeStream, pmsan.Run, cachesim.ReplaySource and, on the apps
// marked Simulatable (six of them), hops.NormalizedSource. It is the
// only workload where the trace codec and the four analyses do work. An
// op is one app transaction.
//
// kv-sweep is a 12-cell subset of the wserve capacity grid (1, 2 and 4
// shards x batch 1 and 32 x 1000 and 8000 clients) with the load
// parameters of BENCH_kv_service.json, one kvservice.Run per cell on a
// private metrics registry. Simulated clients are open-loop Poisson in
// simulated time. pmem flush and fence bookkeeping, persist group commit,
// the log store and the compactor do almost all the work, and nothing
// reads the trace they record. The 1-shard cells compact their logs and
// take most of the time; the 4-shard cells never compact. An op is one
// simulated request.
//
// recovery runs scenario.Run on storm-mixed and compact-churn, seeded
// from the workload seed. It uses the same layers the other way round:
// crashes, recovery scans (alloc.MultiSlab.Recover, the kvservice log
// scan) and oracle reads instead of writes. The other two workloads
// never crash. An op is one crash+recovery cycle the storm's oracles
// checked. The crashcheck matrix is not part of it: at seeds derived
// from arbitrary workload seeds it hits program defects, one of which
// allocates several GB before it panics, which a benchmark sharing a
// machine must not do.
//
// # What each workload should judge
//
//   - Making pmem.Device.Fence stop clearing per-thread maps that keep
//     their peak capacity should raise ops_per_s on kv-sweep, cutting
//     kvservice.compacting.s and leaving kvservice.quiet.s flat, and leave
//     figures flat: app flushes are small, so their fences are cheap
//     already.
//   - Making trace recording opt-in on persist.Runtime should lower
//     alloc_mb on kv-sweep and raise trace.read_frac there.
//   - Keeping one streaming implementation per analysis should move
//     figures (epoch.s, hops.s, cachesim.s and their alloc_mb) and leave
//     kv-sweep flat.
//   - Fixing the segment-boundary recovery bug and bounding compaction
//     pauses should show on recovery and on the kv-sweep simulated
//     figures (sim_fences_per_op, sim_p99_us, sim_space_amp).
//
// # Method
//
// The host loop is closed: each item starts when the previous one ends.
// A round runs every item once; rounds repeat until --seconds have
// passed, and every round must reproduce the first one's simulated
// outputs. Each item starts after a forced garbage collection, so it
// pays for collecting its own garbage. ops_per_s divides a round's ops
// by the sum over items of each item's median time, which keeps a burst
// of load from a neighbouring process out of the figure. Set-up
// (building the inputs and a small warm-up pass) runs five times and
// setup_s is the median. alloc_mb is heap allocation per round;
// peak_rss_mb is the median over rounds of each round's peak resident
// set.
//
// The machine the bounds were set on is shared, and its speed drifts by
// tens of percent within a minute. Every reported host time is scaled to
// a reference speed measured by a fixed kernel run before each item; see
// calib.go. bench.host_slowdown and bench.raw_ops_per_s give the raw
// figures.
//
// The traced run (--trace 1) alternates untraced and traced rounds. It
// records a span around each call from the benchmark into a layer's
// public function, with its name, start, end, parent and item, keeps the
// spans in memory and writes them to .bench_build/spans/ when the run
// ends. A span's self time is its duration minus the part its children
// cover; the benchmark's own spans have no children, the program's own
// spans will. Per-layer times and allocations are per traced round;
// bench.trace_overhead_frac compares traced and untraced rounds, and
// bench.untraced_s is the part of the traced items no span covers, i.e.
// the benchmark's own glue. A per-layer metric of a layer a workload does
// not call reads 0.
//
// Output checks run after the timed phase and count in the result's
// failed/attempted fields (and fail_frac) instead of aborting the run.
// sim_p99_us, sim_space_amp, sim_hops_norm and fail_frac are per-layer
// metrics: the result of every run must carry every end-to-end metric,
// none of them zero, and these exist on one workload each (or are zero
// when all is well).
//
// # Host
//
// The bounds in BENCHMARK.json were set on a 2-CPU container (nproc 2,
// CPU model "Intel(R) Xeon(R) Processor", Go 1.24) with GOMAXPROCS 2, the
// default here: min(NumCPU, 2), unless GOMAXPROCS is set, so at most two
// goroutines run at once.
//
// This benchmark leaves the BENCH_*.json artifacts and cmd/wbench alone:
// it only reads BENCH_kv_service.json, as the reference its grid cells
// must reproduce.
package main
