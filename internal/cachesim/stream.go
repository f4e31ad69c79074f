package cachesim

import (
	"io"

	"github.com/whisper-pm/whisper/internal/trace"
)

// ReplaySource drives the hierarchy with every memory event from an event
// source, in O(1) memory per event; a materialized trace replays through
// trace.NewSliceSource. Volatile accesses participate only when the trace
// was recorded with per-event volatile tracing
// (persist.Config.TraceVolatile); aggregated volatile counters cannot be
// replayed through caches and are ignored here (Figure 6 uses the
// counters directly).
func ReplaySource(h *Hierarchy, src trace.EventSource) (Stats, error) {
	if cs, ok := src.(trace.ChunkSource); ok {
		// Chunked fast path: one interface call per batch instead of per
		// event. The dispatch itself is identical.
		for {
			chunk, err := cs.NextChunk()
			if err == io.EOF {
				break
			}
			if err != nil {
				return h.Stats(), err
			}
			for i := range chunk {
				replayEvent(h, chunk[i])
			}
		}
		return h.Stats(), nil
	}
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return h.Stats(), err
		}
		replayEvent(h, e)
	}
	return h.Stats(), nil
}

func replayEvent(h *Hierarchy, e trace.Event) {
	tid := int(e.TID) % h.cfg.Threads
	switch e.Kind {
	case trace.KStore, trace.KVStore:
		h.Write(tid, e.Addr, int(e.Size))
	case trace.KLoad, trace.KVLoad:
		h.Read(tid, e.Addr, int(e.Size))
	case trace.KStoreNT:
		h.WriteNT(tid, e.Addr, int(e.Size))
	case trace.KFlush:
		h.Flush(tid, e.Addr, int(e.Size))
	}
}
