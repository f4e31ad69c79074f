package whisper

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure files")

// goldenApps are the two fixed-seed benchmarks pinned by golden files:
// one native-layer app with large transactions and one NVML-layer app
// with small ones, so every figure has signal in both regimes.
var goldenApps = []string{"echo", "ctree"}

var goldenCfg = Config{Ops: 10, Seed: 13}

// renderFigures renders every paper figure the Report carries, with full
// precision, as a stable text artifact. Any change to the analysis, the
// runtime, the apps, or the codecs that shifts a single figure value
// shows up as a golden diff.
func renderFigures(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "app: %s\nlayer: %s\n", r.App, r.Layer)
	fmt.Fprintf(&b, "table1.epochs_per_second: %.10g\n", r.EpochsPerSecond)
	fmt.Fprintf(&b, "table1.total_epochs: %d\n", r.TotalEpochs)
	fmt.Fprintf(&b, "fig3.transactions: %d\n", r.Transactions)
	fmt.Fprintf(&b, "fig3.median_tx_epochs: %d\n", r.MedianTxEpochs)
	for i, f := range r.EpochSizes {
		fmt.Fprintf(&b, "fig4.bucket[%s]: %.10g\n", SizeBucketLabels[i], f)
	}
	fmt.Fprintf(&b, "fig4.singleton_fraction: %.10g\n", r.SingletonFraction)
	fmt.Fprintf(&b, "fig4.small_singleton_fraction: %.10g\n", r.SmallSingletonFraction)
	fmt.Fprintf(&b, "fig5.self_deps: %.10g\n", r.SelfDeps)
	fmt.Fprintf(&b, "fig5.cross_deps: %.10g\n", r.CrossDeps)
	fmt.Fprintf(&b, "fig6.pm_share: %.10g\n", r.PMShare)
	fmt.Fprintf(&b, "sec5_2.nti_fraction: %.10g\n", r.NTIFraction)
	fmt.Fprintf(&b, "sec5_2.amplification: %.10g\n", r.Amplification)
	return b.String()
}

// TestGoldenFigures locks Figures 3–6 and Table 1 for two fixed-seed apps
// against committed golden files: the standalone epoch analysis of the
// retained trace must match the file, and the serial, parallel, and
// streaming entry points must all render it byte-identically.
// Regenerate with: go test -run TestGoldenFigures -update .
func TestGoldenFigures(t *testing.T) {
	parReports, err := RunAllParallel(goldenCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	parByApp := make(map[string]*Report)
	for _, r := range parReports {
		parByApp[r.App] = r
	}

	for _, app := range goldenApps {
		app := app
		t.Run(app, func(t *testing.T) {
			serial, err := Run(app, goldenCfg)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := RunStream(app, goldenCfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			par, ok := parByApp[app]
			if !ok {
				t.Fatalf("parallel suite run is missing %s", app)
			}

			ref := refReport(serial.Trace)
			want := renderFigures(&ref)
			if got := renderFigures(serial); got != want {
				t.Errorf("Run renders different figures:\n got:\n%s\nwant:\n%s", got, want)
			}
			if got := renderFigures(par); got != want {
				t.Errorf("RunAllParallel renders different figures:\n got:\n%s\nwant:\n%s", got, want)
			}
			if got := renderFigures(streamed); got != want {
				t.Errorf("RunStream renders different figures:\n got:\n%s\nwant:\n%s", got, want)
			}

			path := filepath.Join("testdata", "golden", app+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if string(golden) != want {
				t.Errorf("figures diverged from %s:\n got:\n%s\nwant:\n%s", path, want, string(golden))
			}
		})
	}
}
