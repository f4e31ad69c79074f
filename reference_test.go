package whisper

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Reference implementations the pipeline is checked against. Each runs
// one standalone analysis directly on a retained trace — never through
// analyzeFused or another public entry point — so a pipeline test that
// compares against them compares two independent computations.

// refReport is the materialized epoch analysis of t, with no trace
// attached.
func refReport(t *Trace) Report { return *newReport(epoch.Analyze(t.tr)) }

// refSan is the standalone sanitizer run over t.
func refSan(tb testing.TB, t *Trace) *SanReport {
	tb.Helper()
	rep, err := pmsan.Run(trace.NewSliceSource(t.tr))
	if err != nil {
		tb.Fatal(err)
	}
	return &SanReport{rep: rep}
}

// refCache is the standalone Table 3 cache replay of t.
func refCache(tb testing.TB, t *Trace) CacheStats {
	tb.Helper()
	st, err := cachesim.ReplaySource(cachesim.New(cachesim.DefaultConfig()), trace.NewSliceSource(t.tr))
	if err != nil {
		tb.Fatal(err)
	}
	return *newCacheStats(st)
}
