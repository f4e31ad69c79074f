package whisper

import (
	"io"

	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Live event source: the benchmark runs in its own goroutine with a
// persist event sink installed, and its events flow through a bounded
// channel of chunks into the analysis pipeline (analyzeFused), so the
// full event slice is never materialized.

// streamChunk is the producer-side batch size: the benchmark goroutine
// hands events to the analysis in chunks so channel synchronization
// amortizes across events.
const streamChunk = 512

// chanSource adapts a bounded channel of event chunks to
// trace.EventSource. The producer closes the channel when the run
// completes (after publishing volatile counters and any run error), so
// Volatile and Err are safe to read once Next has returned io.EOF.
type chanSource struct {
	meta trace.Meta
	ch   chan []trace.Event

	cur []trace.Event
	pos int

	// Written by the producer goroutine strictly before close(ch); read
	// by the consumer only after the channel is drained. The channel
	// close is the synchronization edge.
	vloads  uint64
	vstores uint64
	runErr  error
}

func (c *chanSource) Meta() trace.Meta { return c.meta }

func (c *chanSource) Next() (trace.Event, error) {
	for c.pos >= len(c.cur) {
		chunk, ok := <-c.ch
		if !ok {
			if c.runErr != nil {
				return trace.Event{}, c.runErr
			}
			return trace.Event{}, io.EOF
		}
		c.cur, c.pos = chunk, 0
	}
	e := c.cur[c.pos]
	c.pos++
	return e, nil
}

// NextChunk yields whole producer batches (trace.ChunkSource), so the
// analysis demux pays one channel receive — not one interface call — per
// chunk of events.
func (c *chanSource) NextChunk() ([]trace.Event, error) {
	if c.pos < len(c.cur) {
		chunk := c.cur[c.pos:]
		c.pos = len(c.cur)
		return chunk, nil
	}
	chunk, ok := <-c.ch
	if !ok {
		if c.runErr != nil {
			return nil, c.runErr
		}
		return nil, io.EOF
	}
	c.cur, c.pos = chunk, len(chunk)
	return chunk, nil
}

func (c *chanSource) Volatile() (loads, stores uint64) { return c.vloads, c.vstores }

// RunStream executes the named benchmark and analyzes its event stream on
// the fly, without ever holding the full trace in memory. The returned
// Report is identical to Run's except that Report.Trace is nil. When
// traceOut is non-nil, the stream is also tee'd to it in the chunked v2
// trace format (readable by DecodeTrace, wanalyze -dir, and
// AnalyzeReaderFused).
func RunStream(name string, cfg Config, traceOut io.Writer) (*Report, error) {
	fr, err := RunStreamFused(name, cfg, FusedConfig{}, traceOut)
	if err != nil {
		return nil, err
	}
	return fr.Report, nil
}

// startStream prepares the channel-backed source for the named benchmark
// and returns it with a launch function that starts the producer
// goroutine. Splitting preparation from launch lets callers finish
// fallible setup (e.g. creating a trace writer from src's metadata)
// before any goroutine exists to leak.
func startStream(name string, cfg Config) (src *chanSource, launch func(), err error) {
	b, err := find(name)
	if err != nil {
		return nil, nil, err
	}
	clients, ops := b.size(cfg)

	src = &chanSource{
		meta: trace.Meta{App: b.Name, Layer: b.Layer, Threads: clients},
		ch:   make(chan []trace.Event, 8),
	}
	launch = func() {
		go func() {
			rt := persist.NewRuntime(b.Name, b.Layer, clients, persist.Config{})
			chunk := make([]trace.Event, 0, streamChunk)
			flush := func() {
				if len(chunk) > 0 {
					src.ch <- chunk
					chunk = make([]trace.Event, 0, streamChunk)
				}
			}
			// The sink runs under the benchmark's deterministic scheduler;
			// only this goroutine touches chunk.
			rt.SetEventSink(func(e trace.Event) {
				chunk = append(chunk, e)
				if len(chunk) == streamChunk {
					flush()
				}
			})
			err := b.execute(rt, clients, ops, cfg.Seed)
			// Publish the run's outcome, then close the channel so Next
			// unblocks even when the benchmark panicked.
			flush()
			src.vloads = rt.Trace.VolatileLoads
			src.vstores = rt.Trace.VolatileStores
			src.runErr = err
			close(src.ch)
		}()
	}
	return src, launch, nil
}

// teeSource copies every event it yields into a trace.Writer.
type teeSource struct {
	src *chanSource
	w   *trace.Writer
}

func (t teeSource) Meta() trace.Meta { return t.src.Meta() }

func (t teeSource) Next() (trace.Event, error) {
	e, err := t.src.Next()
	if err != nil {
		return e, err
	}
	if werr := t.w.Write(e); werr != nil {
		return e, werr
	}
	return e, nil
}

func (t teeSource) Volatile() (loads, stores uint64) { return t.src.Volatile() }

// EncodeV2 writes the trace in the chunked v2 trace format (framed,
// CRC-checksummed event blocks; see internal/trace).
func (t *Trace) EncodeV2(w io.Writer) error { return trace.EncodeV2(w, t.tr) }
