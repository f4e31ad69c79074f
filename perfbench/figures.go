package main

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/hops"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// figures is the paper's evaluation: what whisper, wanalyze -dir and
// hopssim do together. Each item is one suite app at its default size:
// RunStream generates the trace (apps, their PM runtimes, the inline
// streaming epoch analysis and the v2 encode), then the trace is decoded
// and fed to the epoch analysis, the sanitizer, the cache simulator and,
// for the simulatable apps, the Figure 10 HOPS replay.
type figures struct {
	cfg  whisper.Config
	apps []whisper.Benchmark
	buf  bytes.Buffer
}

// figuresWarmupOps sizes the set-up pass that runs every app once.
const figuresWarmupOps = 4

func setupFigures(seed int64) (workload, error) {
	f := &figures{cfg: whisper.Config{Seed: seed}, apps: whisper.Benchmarks()}
	warm := &figures{cfg: whisper.Config{Ops: figuresWarmupOps, Seed: seed}, apps: f.apps}
	for _, b := range warm.apps {
		if _, err := warm.runApp(nil, b); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", b.Name, err)
		}
	}
	return f, nil
}

func (f *figures) items() []string {
	var out []string
	for _, b := range f.apps {
		out = append(out, b.Name)
	}
	return out
}

func (f *figures) run(i int, t *tracer) (any, error) { return f.runApp(t, f.apps[i]) }

// appOut is everything one app produced in a round.
type appOut struct {
	App        string
	Report     *whisper.Report
	Generated  uint64 // events the inline analysis consumed during RunStream
	Decoded    int
	TraceBytes int `json:"-"` // encoded size, a host-side choice of the codec
	Stores     uint64
	Flushes    uint64
	Fences     uint64
	Lines      uint64
	San        *pmsan.Report
	Cache      cachesim.Stats
	HOPS       map[string]float64 `json:",omitempty"`
	analysis   *epoch.Analysis
}

func (f *figures) summarize(items []any) *roundOut {
	var outs []*appOut
	for _, it := range items {
		outs = append(outs, it.(*appOut))
	}
	var txs, fences, events, bytes, stores, flushes, lines, sanErrs uint64
	var norms []float64
	for _, o := range outs {
		txs += uint64(o.Report.Transactions)
		fences += o.Fences
		events += uint64(o.Decoded)
		bytes += uint64(o.TraceBytes)
		stores += o.Stores
		flushes += o.Flushes
		lines += o.Lines
		sanErrs += uint64(o.San.Errors())
		if o.HOPS != nil {
			norms = append(norms, o.HOPS[hops.HOPSNVM.String()])
		}
	}
	return &roundOut{
		ops:         int(txs),
		fencesPerOp: float64(fences) / float64(txs),
		sim:         outs,
		layer: map[string]float64{
			"trace.events":          float64(events),
			"trace.bytes_per_event": float64(bytes) / float64(events),
			"pmem.stores":           float64(stores),
			"pmem.flushes":          float64(flushes),
			"pmem.fences":           float64(fences),
			"pmem.lines_persisted":  float64(lines),
			"pmsan.errors":          float64(sanErrs),
			"sim_hops_norm":         geomean(norms),
		},
	}
}

func (f *figures) runApp(t *tracer, b whisper.Benchmark) (*appOut, error) {
	o := &appOut{App: b.Name}

	before := whisper.Metrics().Counters
	f.buf.Reset()
	sp := t.begin("apps", b.Name)
	rep, err := whisper.RunStream(b.Name, f.cfg, &f.buf)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	after := whisper.Metrics().Counters
	delta := func(metric string, labels string) uint64 {
		key := metric + "{" + labels + "}"
		return after[key] - before[key]
	}
	app := "app=" + b.Name
	o.Report = rep
	o.Generated = delta("pipeline_events_total", app+",stage=demux")
	o.Stores = delta("pmem_stores_total", app) + delta("pmem_nt_stores_total", app)
	o.Flushes = delta("pmem_flushes_total", app)
	o.Fences = delta("pmem_fences_total", app)
	o.Lines = delta("pmem_lines_persisted_total", app)
	o.TraceBytes = f.buf.Len()

	sp = t.begin("trace", b.Name)
	tr, err := trace.Decode(bytes.NewReader(f.buf.Bytes()))
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	o.Decoded = tr.Len()

	sp = t.begin("epoch", b.Name)
	o.analysis, err = epoch.AnalyzeStream(trace.NewSliceSource(tr))
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}

	sp = t.begin("pmsan", b.Name)
	o.San, err = pmsan.Run(trace.NewSliceSource(tr))
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("pmsan: %w", err)
	}

	sp = t.begin("cachesim", b.Name)
	o.Cache, err = cachesim.ReplaySource(cachesim.New(cachesim.DefaultConfig()), trace.NewSliceSource(tr))
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cachesim: %w", err)
	}

	if b.Simulatable {
		sp = t.begin("hops", b.Name)
		norm, err := hops.NormalizedSource(trace.NewSliceSource(tr), hops.DefaultConfig(), mem.DefaultLatency(), nil)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("hops: %w", err)
		}
		o.HOPS = make(map[string]float64, len(norm))
		for m, v := range norm {
			o.HOPS[m.String()] = v
		}
	}
	return o, nil
}

func (f *figures) check(first *roundOut, c *checks) {
	for _, o := range first.sim.([]*appOut) {
		diffs := reportDiffs(o.Report, o.analysis)
		c.expect(len(diffs) == 0, "%s: RunStream report differs from AnalyzeStream on the decoded trace: %s",
			o.App, strings.Join(diffs, "; "))
		c.expect(uint64(o.Decoded) == o.Generated, "%s: decoded %d events, generated %d",
			o.App, o.Decoded, o.Generated)
		c.expect(o.San.Errors() == 0, "%s: %d sanitizer errors", o.App, o.San.Errors())
	}
}

// reportDiffs compares a RunStream report with an epoch analysis field by
// field, through the same accessors the report is built from.
func reportDiffs(r *whisper.Report, a *epoch.Analysis) []string {
	var d []string
	cmp := func(name string, got, want any) {
		if got != want {
			d = append(d, fmt.Sprintf("%s %v != %v", name, got, want))
		}
	}
	cmp("App", r.App, a.App)
	cmp("Layer", r.Layer, a.Layer)
	cmp("TotalEpochs", r.TotalEpochs, a.TotalEpochs)
	cmp("EpochsPerSecond", r.EpochsPerSecond, a.EpochsPerSecond())
	cmp("Transactions", r.Transactions, len(a.TxEpochCounts))
	cmp("MedianTxEpochs", r.MedianTxEpochs, a.MedianTxEpochs())
	cmp("EpochSizes", r.EpochSizes, a.SizeDistribution())
	cmp("SingletonFraction", r.SingletonFraction, a.SingletonFraction())
	cmp("SmallSingletonFraction", r.SmallSingletonFraction, a.SmallSingletonFraction())
	cmp("SelfDeps", r.SelfDeps, a.SelfDepFraction())
	cmp("CrossDeps", r.CrossDeps, a.CrossDepFraction())
	cmp("NTIFraction", r.NTIFraction, a.NTIFraction())
	cmp("Amplification", r.Amplification, a.Amplification())
	cmp("PMShare", r.PMShare, a.PMFraction())
	return d
}
