// Command whisper runs WHISPER benchmarks on the simulated PM substrate
// and reports Table 1 (epochs per second), optionally saving raw traces
// for offline analysis with wanalyze/hopssim.
//
// Usage:
//
//	whisper [-bench name] [-clients n] [-ops n] [-seed n] [-trace dir] [-table1]
//	        [-san] [-san-allow file] [-metrics out.json] [-debug-addr :6060]
//
// With no -bench, the whole suite runs, one app after another. Each app's
// events stream straight into the analysis as they are produced, so no
// trace is held in memory; -trace saves each stream as <dir>/<app>.wspr
// in the chunked v2 format. The output is byte-identical for a fixed
// seed, with or without -metrics, which only snapshots counters after
// the runs finish.
//
// -san taps the same stream with the durability-ordering sanitizer
// (internal/pmsan) and prints one report per app after the benchmark
// output; the process exits 1 if any unsuppressed ordering error
// remains. -san-allow loads an allowlist of known findings to suppress.
//
// -debug-addr serves net/http/pprof and expvar (the live metrics snapshot
// is published as the "whisper" expvar) for profiling long sweeps.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/cliutil"
	"github.com/whisper-pm/whisper/internal/obs"
)

func main() {
	bench := flag.String("bench", "", "benchmark to run (default: whole suite)")
	clients := flag.Int("clients", 0, "client threads (0 = paper default)")
	ops := flag.Int("ops", 0, "operations per client (0 = suite default)")
	seed := flag.Int64("seed", 1, "workload seed")
	traceDir := flag.String("trace", "", "directory to save raw traces (chunked v2 format)")
	table1 := flag.Bool("table1", false, "print only the Table 1 epoch-rate rows")
	san := flag.Bool("san", false, "run the durability-ordering sanitizer over each run; exit 1 on unsuppressed ordering errors")
	sanAllow := flag.String("san-allow", "", "allowlist file of known sanitizer findings to suppress (implies -san)")
	metrics := flag.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	flag.Parse()

	var allow *whisper.Allowlist
	if *sanAllow != "" {
		*san = true
		var err error
		if allow, err = whisper.LoadAllowlist(*sanAllow); err != nil {
			fmt.Fprintln(os.Stderr, "whisper:", err)
			os.Exit(1)
		}
	}

	if *debugAddr != "" {
		// The metrics registry is atomic end to end, so scraping it while
		// benchmarks run is safe and does not perturb them.
		expvar.Publish("whisper", expvar.Func(func() any {
			return obs.Default().Snapshot()
		}))
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "whisper: debug server:", err)
			}
		}()
	}

	cfg := whisper.Config{Clients: *clients, Ops: *ops, Seed: *seed}

	names := whisper.Names()
	if *bench != "" {
		names = []string{*bench}
	}

	var reports []*whisper.Report
	var sanReports []*whisper.SanReport
	for _, name := range names {
		fr, err := runOne(name, cfg, *traceDir, *san)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reports = append(reports, fr.Report)
		if fr.San != nil {
			sanReports = append(sanReports, fr.San)
		}
	}

	if *table1 {
		fmt.Printf("%-10s %-10s %-14s %s\n", "Benchmark", "Layer", "Epochs/sec", "Paper (Table 1)")
	}
	paperRates := map[string]string{
		"echo": "1.6M", "ycsb": "5M", "tpcc": "7.3M", "redis": "1.3M",
		"ctree": "1M", "hashmap": "1.3M", "vacation": "700K",
		"memcached": "1.5M", "nfs": "250K", "exim": "6250", "mysql": "60K",
	}

	for _, rep := range reports {
		if *table1 {
			fmt.Printf("%-10s %-10s %-14.3g %s\n", rep.App, rep.Layer,
				rep.EpochsPerSecond, paperRates[rep.App])
		} else {
			fmt.Print(rep.String())
		}
	}
	sanErrors := 0
	for _, sr := range sanReports {
		sr.ApplyAllowlist(allow)
		fmt.Print(sr.String())
		sanErrors += sr.Errors()
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		fmt.Fprintln(os.Stderr, "whisper:", err)
		os.Exit(1)
	}
	if sanErrors > 0 {
		fmt.Fprintf(os.Stderr, "whisper: sanitizer found %d unsuppressed ordering error sites\n", sanErrors)
		os.Exit(1)
	}
}

// runOne runs one benchmark through the analysis pipeline, teeing its
// events to <dir>/<name>.wspr when dir is set, with the sanitizer tapping
// the stream when san is set.
func runOne(name string, cfg whisper.Config, dir string, san bool) (*whisper.FusedReport, error) {
	var out io.Writer
	var f *os.File
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if f, err = os.Create(filepath.Join(dir, name+".wspr")); err != nil {
			return nil, err
		}
		out = f
	}
	fr, err := whisper.RunStreamFused(name, cfg, whisper.FusedConfig{Sanitize: san}, out)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return fr, err
}
