package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function, tagged with the item (app, cell, scenario) it served. The
// benchmark's own spans are all top-level; Parent links the spans a
// program records inside them.
// Times are nanoseconds since the tracer's epoch; alloc is the process
// heap-allocation counter at each end, so a span's allocation includes
// any goroutines the layer started.
type span struct {
	Name       string `json:"name"`
	Item       string `json:"item"`
	Parent     int    `json:"parent"` // index into the span list, -1 for a top-level span
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocStart uint64 `json:"alloc_start"`
	AllocEnd   uint64 `json:"alloc_end"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced rounds pay one nil
// check per call site.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int // stack of open span indexes
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name, item string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Item: item, Parent: parent,
		AllocStart: t.allocs(),
		Start:      int64(time.Since(t.epoch)),
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.AllocEnd = t.allocs()
	t.open = t.open[:len(t.open)-1]
}

// rename relabels span id once its outcome is known (a kvservice cell is
// "compacting" or "quiet" only after it ran).
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

// since returns nanoseconds from the tracer's epoch to now.
func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) }

// layerTotals is the per-name sum of self time and self allocation.
type layerTotals struct {
	selfNS    map[string]int64
	selfAlloc map[string]int64
}

// totals computes each span's self time — its duration minus the part of
// it that its children cover — and self allocation, summed per name.
func totals(spans []span) layerTotals {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := layerTotals{selfNS: map[string]int64{}, selfAlloc: map[string]int64{}}
	for i, s := range spans {
		var iv [][2]int64
		alloc := int64(s.AllocEnd - s.AllocStart)
		for _, k := range kids[i] {
			c := spans[k]
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
			alloc -= int64(c.AllocEnd - c.AllocStart)
		}
		out.selfNS[s.Name] += (s.End - s.Start) - covered(iv)
		out.selfAlloc[s.Name] += alloc
	}
	return out
}

// covered is the total length of the union of half-open intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, lo, hi int64
	started := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		switch {
		case !started:
			lo, hi, started = v[0], v[1], true
		case v[0] > hi:
			sum += hi - lo
			lo, hi = v[0], v[1]
		case v[1] > hi:
			hi = v[1]
		}
	}
	if started {
		sum += hi - lo
	}
	return sum
}

// topLevelCover is how much of [from, to) the top-level spans cover.
func topLevelCover(spans []span, from, to int64) int64 {
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent < 0 {
			iv = append(iv, [2]int64{max(s.Start, from), min(s.End, to)})
		}
	}
	return covered(iv)
}

// writeSpans dumps the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
