package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/kvservice"
)

// The benchmark runs from the repository root, where it finds
// BENCH_kv_service.json; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// root [0,100) has children [10,30) and [20,50), which overlap, and
	// [90,120), which overruns it; the first child has a grandchild.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100, AllocStart: 0, AllocEnd: 1000},
		{Name: "a", Parent: 0, Start: 10, End: 30, AllocStart: 100, AllocEnd: 300},
		{Name: "leaf", Parent: 1, Start: 12, End: 18, AllocStart: 110, AllocEnd: 150},
		{Name: "a", Parent: 0, Start: 20, End: 50, AllocStart: 300, AllocEnd: 400},
		{Name: "b", Parent: 0, Start: 90, End: 120, AllocStart: 900, AllocEnd: 950},
		{Name: "other", Parent: -1, Start: 130, End: 140},
	}
	tot := totals(spans)
	wantNS := map[string]int64{
		"root":  100 - (40 + 10), // children cover [10,50) and [90,100)
		"a":     (20 - 6) + 30,
		"leaf":  6,
		"b":     30,
		"other": 10,
	}
	for name, want := range wantNS {
		if got := tot.selfNS[name]; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	wantAlloc := map[string]int64{"root": 1000 - 200 - 100 - 50, "a": 160 + 100, "leaf": 40, "b": 50}
	for name, want := range wantAlloc {
		if got := tot.selfAlloc[name]; got != want {
			t.Errorf("self allocation of %s = %d, want %d", name, got, want)
		}
	}
	if got := topLevelCover(spans, 50, 135); got != 55 {
		t.Errorf("top-level cover of [50,135) = %d, want 55", got)
	}
}

func TestTracerRecordsParentsAndItems(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", "app")
	inner := tr.begin("inner", "app")
	tr.end(inner)
	tr.rename(inner, "renamed")
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 ||
		tr.spans[1].Name != "renamed" || tr.spans[1].Item != "app" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "y")) // a nil tracer records nothing
}

// declared reads the metric lists of BENCHMARK.json.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := declared(t)
	for _, list := range []struct {
		defs []metricDef
		decl map[string]string
	}{{endToEnd, e2e}, {perLayer, layer}} {
		if len(list.defs) != len(list.decl) {
			t.Errorf("%d metrics reported, %d declared", len(list.defs), len(list.decl))
		}
		for _, m := range list.defs {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q", m.name)
			}
			if unit, ok := list.decl[m.name]; !ok || unit != m.unit {
				t.Errorf("metric %s (%s) declared as %q (declared: %v)", m.name, m.unit, unit, ok)
			}
		}
	}
}

// TestEveryWorkloadReportsDeclaredMetrics runs each workload for one
// untraced and one traced round and checks what it would print.
func TestEveryWorkloadReportsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := declared(t)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, err := measure(def, 1, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.checks.failed != 0 || res.checks.attempted == 0 {
				t.Errorf("checks: %d of %d failed", res.checks.failed, res.checks.attempted)
			}
			for name, v := range res.endToEnd {
				if _, ok := e2e[name]; !ok {
					t.Errorf("end-to-end metric %s is not declared", name)
				}
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
				}
			}
			for name := range res.perLayer {
				if _, ok := layer[name]; !ok {
					t.Errorf("per-layer metric %s is not declared", name)
				}
			}
			for _, traced := range []bool{false, true} {
				line, err := res.resultLine(traced)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				want := e2e
				if traced {
					want = layer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("traced=%v: printed %d metrics, want %d", traced, len(out.Metrics), len(want))
				}
			}
		})
	}
}

func TestSeedReachesEveryGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's set-up")
	}
	const a = 7
	fa, err := setupFigures(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := fa.(*figures).cfg.Seed; got != a {
		t.Errorf("whisper.Config.Seed = %d, want %d", got, a)
	}
	ka, err := setupKVSweep(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ka.(*kvSweep).cells {
		if c.Seed != a {
			t.Errorf("SimConfig.Seed = %d, want %d", c.Seed, a)
		}
	}
	ra, err := setupRecovery(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := ra.(*recovery).cfg.Seed; got != a {
		t.Errorf("scenario.Config.Seed = %d, want %d", got, a)
	}
}

// TestDigest checks that the digest is a function of the seed alone: the
// same at GOMAXPROCS 1 and 2, different for another seed.
func TestDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figures rounds")
	}
	digest := func(seed int64) [32]byte {
		w, err := setupFigures(seed)
		if err != nil {
			t.Fatal(err)
		}
		var outs []any
		for i := range w.items() {
			o, err := w.run(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, o)
		}
		sum, err := hashSim(w.summarize(outs).sim)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := digest(1)
	runtime.GOMAXPROCS(2)
	if two := digest(1); two != one {
		t.Errorf("digest at GOMAXPROCS 2 differs from GOMAXPROCS 1")
	}
	if other := digest(2); other == one {
		t.Errorf("seeds 1 and 2 have the same digest")
	}
}

func TestTamperedReferenceRowFails(t *testing.T) {
	w, err := setupKVSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	k := w.(*kvSweep)
	// One 4-shard cell keeps the test fast; 4-shard cells do not compact.
	var cell kvservice.SimConfig
	for _, c := range k.cells {
		if c.Shards == 4 {
			cell = c
			break
		}
	}
	k.cells = []kvservice.SimConfig{cell}
	var clean checks
	k.checkReference(&clean)
	if clean.failed != 0 || clean.attempted != 2 {
		t.Fatalf("untampered reference: %d of %d checks failed", clean.failed, clean.attempted)
	}
	for i, r := range k.ref.Rows {
		if r.Shards == cell.Shards && r.Batch == cell.Batch && r.Clients == cell.Clients {
			k.ref.Rows[i].P99Us += 0.001
		}
	}
	var tampered checks
	k.checkReference(&tampered)
	if tampered.failed != 1 {
		t.Errorf("tampered reference row: %d of %d checks failed, want 1", tampered.failed, tampered.attempted)
	}
}

func TestTamperedReportFails(t *testing.T) {
	f := &figures{cfg: whisper.Config{Ops: figuresWarmupOps, Seed: 1}, apps: whisper.Benchmarks()[:1]}
	o, err := f.runApp(nil, f.apps[0])
	if err != nil {
		t.Fatal(err)
	}
	first := f.summarize([]any{o})
	var clean checks
	f.check(first, &clean)
	if clean.failed != 0 {
		t.Fatalf("untampered report: %d of %d checks failed", clean.failed, clean.attempted)
	}
	o.Report.TotalEpochs++
	o.Decoded--
	var tampered checks
	f.check(first, &tampered)
	if tampered.failed != 2 {
		t.Errorf("tampered report and event count: %d of %d checks failed, want 2", tampered.failed, tampered.attempted)
	}
}
