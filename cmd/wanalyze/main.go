// Command wanalyze reproduces the paper's trace analyses: Figure 3
// (transaction sizes), Figure 4 (epoch size distribution), Figure 5
// (self/cross dependencies), and the §5.2 cross-cutting statistics (write
// amplification, NTI fractions, small singletons).
//
// It analyzes saved traces (-dir, files written by `whisper -trace`) or,
// with -run, regenerates the suite in-process first. Either way each
// trace is read in one streaming pass — each file decoded, or each app
// executed, exactly once — and never materialized; every selected
// analysis consumes that same pass.
//
// Usage:
//
//	wanalyze -run [-fig3] [-fig4] [-fig5] [-amp] [-nti] [-san] [-cache]
//	wanalyze -dir traces/ -fig3
//	wanalyze -dir traces/ -san -cache
//	wanalyze -run -metrics out.json
//
// -san adds the durability-ordering sanitizer (internal/pmsan) to the
// pass and prints one report per app; exit status is 1 if any ordering
// error is found. -cache adds the Table 3 cache-hierarchy simulation and
// prints where accesses were serviced.
//
// With no figure flags, everything prints. Exit status is 1 when there is
// nothing to analyze or a trace fails to load, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/cliutil"
)

var paper = map[string]struct {
	median   int
	selfDeps float64
}{
	"echo": {307, 54.5}, "ycsb": {42, 40.2}, "tpcc": {197, 27.18},
	"redis": {6, 82.5}, "ctree": {11, 79}, "hashmap": {11, 81},
	"vacation": {4, 40}, "memcached": {4, 63.5}, "nfs": {2, 55},
	"exim": {5, 45.27}, "mysql": {7, 17.89},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so error-path tests can
// call it directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runSuite := fs.Bool("run", false, "regenerate the suite in-process")
	dir := fs.String("dir", "", "directory of saved .wspr traces")
	ops := fs.Int("ops", 0, "operations per client when regenerating")
	seed := fs.Int64("seed", 1, "workload seed when regenerating")
	fig3 := fs.Bool("fig3", false, "print Figure 3 (epochs per transaction)")
	fig4 := fs.Bool("fig4", false, "print Figure 4 (epoch size distribution)")
	fig5 := fs.Bool("fig5", false, "print Figure 5 (dependencies)")
	amp := fs.Bool("amp", false, "print write amplification (§5.2)")
	nti := fs.Bool("nti", false, "print NTI fractions (§5.2)")
	san := fs.Bool("san", false, "run the durability-ordering sanitizer over each trace; exit 1 on ordering errors")
	cache := fs.Bool("cache", false, "simulate the Table 3 cache hierarchy over each trace")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// flag.Parse stops at the first positional argument, so a typo like
	// `wanalyze -run echo -san` would otherwise silently drop every
	// flag after "echo" and run the defaults instead.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "wanalyze: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	// -san and -cache act as section selectors like the figure flags:
	// alone they print only their own reports.
	all := !*fig3 && !*fig4 && !*fig5 && !*amp && !*nti && !*san && !*cache

	reports, sanReports, cacheStats, err := collect(*runSuite, *dir, *ops, *seed, whisper.FusedConfig{Sanitize: *san, Cache: *cache})
	if err != nil {
		fmt.Fprintln(stderr, "wanalyze:", err)
		return 1
	}
	if len(reports) == 0 {
		fmt.Fprintln(stderr, "wanalyze: nothing to analyze (use -run or -dir)")
		return 1
	}

	if all || *fig3 {
		fmt.Fprintln(stdout, "== Figure 3: median epochs per transaction ==")
		fmt.Fprintf(stdout, "%-10s %-10s %s\n", "Benchmark", "Measured", "Paper")
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s %-10d %d\n", r.App, r.MedianTxEpochs, paper[r.App].median)
		}
		fmt.Fprintln(stdout)
	}
	if all || *fig4 {
		fmt.Fprintln(stdout, "== Figure 4: epoch size distribution (64B lines) ==")
		fmt.Fprintf(stdout, "%-10s", "Benchmark")
		for _, l := range whisper.SizeBucketLabels {
			fmt.Fprintf(stdout, " %6s", l)
		}
		fmt.Fprintln(stdout)
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s", r.App)
			for _, f := range r.EpochSizes {
				fmt.Fprintf(stdout, " %5.1f%%", f*100)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintln(stdout)
	}
	if all || *fig5 {
		fmt.Fprintln(stdout, "== Figure 5: epoch dependencies within 50 µs ==")
		fmt.Fprintf(stdout, "%-10s %-12s %-12s %s\n", "Benchmark", "self-dep", "cross-dep", "paper self-dep")
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s %-12.2f %-12.3f %.2f\n",
				r.App, r.SelfDeps*100, r.CrossDeps*100, paper[r.App].selfDeps)
		}
		fmt.Fprintln(stdout)
	}
	if all || *amp {
		fmt.Fprintln(stdout, "== §5.2: write amplification (extra bytes per user byte) ==")
		paperAmp := map[string]string{
			"nfs": "~10%", "exim": "~10%", "mysql": "~10%",
			"vacation": "300-600%", "memcached": "300-600%",
			"redis": "~1000%", "ctree": "~1000%", "hashmap": "~1000%",
			"ycsb": "200-1400%", "tpcc": "200-1400%", "echo": "n/a",
		}
		fmt.Fprintf(stdout, "%-10s %-12s %s\n", "Benchmark", "Measured", "Paper")
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s %-12.0f %s\n", r.App, r.Amplification*100, paperAmp[r.App])
		}
		fmt.Fprintln(stdout)
	}
	if all || *nti {
		fmt.Fprintln(stdout, "== §5.2: non-temporal store fraction (bytes) ==")
		fmt.Fprintf(stdout, "%-10s %-12s %s\n", "Benchmark", "Measured", "Paper")
		for _, r := range reports {
			ref := "-"
			switch r.Layer {
			case "pmfs":
				ref = "~96%"
			case "mnemosyne":
				ref = "~67%"
			}
			fmt.Fprintf(stdout, "%-10s %-12.1f %s\n", r.App, r.NTIFraction*100, ref)
		}
	}
	if *cache {
		fmt.Fprintln(stdout, "== Cache hierarchy (Table 3): access servicing ==")
		fmt.Fprintf(stdout, "%-10s %10s %10s %10s %10s %10s %10s %10s %10s\n",
			"Benchmark", "L1", "L2", "remote", "DRAM-rd", "DRAM-wr", "PM-rd", "PM-wr", "NT-wr")
		for i, cs := range cacheStats {
			fmt.Fprintf(stdout, "%-10s %10d %10d %10d %10d %10d %10d %10d %10d\n",
				reports[i].App, cs.L1Hits, cs.L2Hits, cs.RemoteHits,
				cs.DRAMReads, cs.DRAMWrites, cs.PMReads, cs.PMWrites, cs.NTWrites)
		}
		fmt.Fprintln(stdout)
	}
	sanErrors := 0
	if *san {
		fmt.Fprintln(stdout, "== Sanitizer: durability-ordering violations ==")
		for _, sr := range sanReports {
			fmt.Fprint(stdout, sr.String())
			sanErrors += sr.Errors()
		}
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		fmt.Fprintln(stderr, "wanalyze:", err)
		return 1
	}
	if sanErrors > 0 {
		fmt.Fprintf(stderr, "wanalyze: sanitizer found %d ordering error sites\n", sanErrors)
		return 1
	}
	return 0
}

// collect gathers one analysis report per app, plus one sanitizer report
// per app when fcfg.Sanitize is set and one cache-stats record per app
// when fcfg.Cache is set; the three slices are index-aligned. Each app
// run or trace file is consumed exactly once, with every selected
// analysis fanned out over the same event stream.
func collect(run bool, dir string, ops int, seed int64, fcfg whisper.FusedConfig) ([]*whisper.Report, []*whisper.SanReport, []*whisper.CacheStats, error) {
	var out []*whisper.Report
	var sans []*whisper.SanReport
	var stats []*whisper.CacheStats
	keep := func(fr *whisper.FusedReport) {
		out = append(out, fr.Report)
		if fr.San != nil {
			sans = append(sans, fr.San)
		}
		if fr.Cache != nil {
			stats = append(stats, fr.Cache)
		}
	}
	if run {
		cfg := whisper.Config{Ops: ops, Seed: seed}
		for _, name := range whisper.Names() {
			fr, err := whisper.RunStreamFused(name, cfg, fcfg, nil)
			if err != nil {
				return nil, nil, nil, err
			}
			keep(fr)
		}
		return out, sans, stats, nil
	}
	if dir == "" {
		return nil, nil, nil, nil
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.wspr"))
	if err != nil {
		return nil, nil, nil, err
	}
	for _, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, err
		}
		fr, err := whisper.AnalyzeReaderFused(f, fcfg)
		f.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %v", path, err)
		}
		keep(fr)
	}
	return out, sans, stats, nil
}
