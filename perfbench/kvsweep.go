package main

import (
	"bytes"
	"fmt"
	"os"

	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// refPath is the committed wserve capacity sweep, read (never written)
// to check that cells on its grid reproduce its rows exactly. It is
// relative to the repository root, where the benchmark runs.
const refPath = "BENCH_kv_service.json"

// kvGrid is the sweep the kv-sweep workload runs, a subset of the wserve
// grid: 1-shard cells compact their log (the pmem fence bookkeeping and
// the compactor dominate them) and 4-shard cells do not, so a change to
// either path shows in its own per-layer time.
var kvGrid = struct{ shards, batches, clients []int }{
	shards:  []int{1, 2, 4},
	batches: []int{1, 32},
	clients: []int{1000, 8000},
}

// kvSweep is the wserve capacity grid: one kvservice.Run per (shards x
// batch x clients) cell, each cell with a private metrics registry and
// the reference sweep's load parameters, seeded from the workload seed.
// Clients are open-loop Poisson in simulated time.
type kvSweep struct {
	seed  int64
	ref   kvservice.SweepResult
	cells []kvservice.SimConfig
}

func setupKVSweep(seed int64) (workload, error) {
	buf, err := os.ReadFile(refPath)
	if err != nil {
		return nil, err
	}
	ref, err := kvservice.ReadJSON(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", refPath, err)
	}
	k := &kvSweep{seed: seed, ref: ref}
	for _, ns := range kvGrid.shards {
		for _, b := range kvGrid.batches {
			for _, cl := range kvGrid.clients {
				cfg := k.cellConfig(ns, b, cl)
				cfg.Seed = seed
				k.cells = append(k.cells, cfg)
			}
		}
	}
	// Warm-up: the first cell at half its requests, so the first timed
	// round does not pay for first-touch heap growth.
	warm := k.cells[0]
	warm.Ops /= 2
	kvservice.Run(warm)
	return k, nil
}

// cellConfig is the reference sweep's configuration for one cell.
func (k *kvSweep) cellConfig(shards, batch, clients int) kvservice.SimConfig {
	c := k.ref.Config
	return kvservice.SimConfig{
		Shards:          shards,
		Batch:           batch,
		Clients:         clients,
		ClientOpsPerSec: c.ClientOpsPerSec,
		Ops:             c.Ops,
		Keys:            c.Keys,
		WritePct:        c.WritePct,
		ValueLen:        c.ValueLen,
		ZipfS:           c.ZipfS,
		MaxWaitNS:       c.MaxWaitNS,
		OpCycles:        c.OpCycles,
		Seed:            c.Seed,
	}
}

// cellOut is one cell's simulated outputs. The counts taken from the
// recorded trace stay out of the digest: recording is host-side
// bookkeeping that a host-only change may drop.
type cellOut struct {
	Row          kvservice.SimResult
	Rejects      uint64
	CopiedBytes  uint64
	Fences       uint64 // device counters summed over shards
	Flushes      uint64
	Lines        uint64
	GroupCommits uint64 `json:"-"`
	Events       uint64 `json:"-"` // trace events recorded over shards
}

func (k *kvSweep) items() []string {
	var out []string
	for _, c := range k.cells {
		out = append(out, fmt.Sprintf("s%d-b%d-c%d", c.Shards, c.Batch, c.Clients))
	}
	return out
}

func (k *kvSweep) run(i int, t *tracer) (any, error) { return runCell(t, k.cells[i]), nil }

func (k *kvSweep) summarize(items []any) *roundOut {
	var outs []cellOut
	for _, it := range items {
		outs = append(outs, it.(cellOut))
	}
	layer := map[string]float64{}
	var ops int
	var fences uint64
	var p99s, amps []float64
	for _, o := range outs {
		ops += o.Row.Ops
		fences += o.Row.Fences
		p99s = append(p99s, o.Row.P99Us)
		amps = append(amps, o.Row.SpaceAmp)
		layer["pmem.fences"] += float64(o.Fences)
		layer["pmem.flushes"] += float64(o.Flushes)
		layer["pmem.lines_persisted"] += float64(o.Lines)
		layer["persist.group_commits"] += float64(o.GroupCommits)
		layer["kvservice.compactions"] += float64(o.Row.Compactions)
		layer["kvservice.copied_mb"] += float64(o.CopiedBytes) / 1e6
		layer["kvservice.rejects"] += float64(o.Rejects)
		layer["trace.events_recorded"] += float64(o.Events)
	}
	layer["sim_p99_us"] = geomean(p99s)
	layer["sim_space_amp"] = geomean(amps)
	return &roundOut{
		ops:         ops,
		fencesPerOp: float64(fences) / float64(ops),
		sim:         outs,
		layer:       layer,
	}
}

func runCell(t *tracer, cfg kvservice.SimConfig) cellOut {
	cfg.Metrics = obs.NewRegistry()
	sp := t.begin("kvservice", fmt.Sprintf("s%d-b%d-c%d", cfg.Shards, cfg.Batch, cfg.Clients))
	row, svc := kvservice.Run(cfg)
	stats, space := svc.Stats(), svc.Space()
	o := cellOut{Row: row, Rejects: stats.Rejects, CopiedBytes: space.CopiedBytes}
	for i := 0; i < svc.Shards(); i++ {
		ds := svc.Runtime(i).Dev.Stats()
		o.Fences += ds.Fences
		o.Flushes += ds.Flushes
		o.Lines += ds.LinesPersist
	}
	t.end(sp)
	if row.Compactions > 0 {
		t.rename(sp, "kvservice.compacting")
	} else {
		t.rename(sp, "kvservice.quiet")
	}

	for i := 0; i < svc.Shards(); i++ {
		ev := svc.Runtime(i).Trace.Events
		o.Events += uint64(len(ev))
		o.GroupCommits += headPublishes(ev)
	}
	return o
}

// headPublishes counts a shard's group commits from its trace. Every
// commit that carried records ends with one 8-byte store to the
// superblock head, and formatting the shard stores the head first, so the
// head's address is that of the shard's first store; the format's own
// store is not a commit.
func headPublishes(ev []trace.Event) uint64 {
	var head uint64
	found := false
	var n uint64
	for _, e := range ev {
		if e.Kind != trace.KStore {
			continue
		}
		if !found {
			head, found = uint64(e.Addr), true
			continue
		}
		if uint64(e.Addr) == head && e.Size == 8 {
			n++
		}
	}
	return n
}

func (k *kvSweep) check(first *roundOut, c *checks) {
	outs := first.sim.([]cellOut)
	for i, o := range outs {
		c.expect(o.Rejects == 0, "cell %d: %d rejected requests", i, o.Rejects)
	}
	k.checkReference(c)

	// One compacting cell, run again: flush, read every key, power-fail
	// under the strict model, recover, and read again. Every acknowledged
	// value must survive, and the merged trace must be sanitizer-clean.
	idx := -1
	for i, o := range outs {
		if o.Row.Compactions > 0 {
			idx = i
			break
		}
	}
	c.expect(idx >= 0, "the grid has a compacting cell")
	if idx < 0 {
		return
	}
	cfg := k.cells[idx]
	_, svc := kvservice.Run(cfg)
	svc.Flush()
	before := readAll(svc, cfg.Keys)
	err := svc.Crash(pmem.Strict, k.seed)
	c.expect(err == nil, "crash check cell %d: recovery: %v", idx, err)
	after := readAll(svc, cfg.Keys)
	lost := 0
	for key, v := range before {
		if got, ok := after[key]; !ok || !bytes.Equal(got, v) {
			lost++
		}
	}
	c.expect(lost == 0 && len(after) == len(before),
		"crash check cell %d: %d of %d acknowledged keys lost or changed, %d keys after recovery",
		idx, lost, len(before), len(after))
	var recorded uint64
	for i := 0; i < svc.Shards(); i++ {
		recorded += uint64(len(svc.Runtime(i).Trace.Events))
	}
	rep, err := pmsan.Run(svc.TraceSource())
	c.expect(err == nil, "crash check cell %d: sanitizer: %v", idx, err)
	if err != nil {
		return
	}
	c.expect(rep.Errors() == 0, "crash check cell %d: %d sanitizer errors", idx, rep.Errors())
	// Of every event recorded in the round plus this cell, only this
	// cell's, fed to the sanitizer, reach a trace consumer.
	first.layer["trace.read_frac"] = float64(rep.Events) / (first.layer["trace.events_recorded"] + float64(recorded))
}

// checkReference runs every grid cell that the reference sweep also ran,
// with the reference configuration, and compares the rows exactly.
func (k *kvSweep) checkReference(c *checks) {
	type coord struct{ sh, b, cl int }
	refRows := map[coord]kvservice.SimResult{}
	for _, r := range k.ref.Rows {
		refRows[coord{r.Shards, r.Batch, r.Clients}] = r
	}
	matched := 0
	for _, cell := range k.cells {
		want, ok := refRows[coord{cell.Shards, cell.Batch, cell.Clients}]
		if !ok {
			continue
		}
		matched++
		got := kvservice.Simulate(k.cellConfig(cell.Shards, cell.Batch, cell.Clients))
		c.expect(got == want, "reference row shards=%d batch=%d clients=%d: got %+v, want %+v",
			cell.Shards, cell.Batch, cell.Clients, got, want)
	}
	c.expect(matched > 0, "the grid shares cells with %s", refPath)
}

// readAll reads every key the load generator can draw.
func readAll(svc *kvservice.Service, keys uint64) map[string][]byte {
	out := map[string][]byte{}
	for i := uint64(0); i < keys; i++ {
		key := fmt.Sprintf("key%08d", i)
		if v, ok := svc.Get(key); ok {
			out[key] = v
		}
	}
	return out
}
