package cachesim

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestReplayEdgeCases is a table of replay inputs whose correct handling
// is easy to get wrong: fences with nothing outstanding, NT stores that
// straddle a line boundary, duplicate flushes, and zero-size accesses.
func TestReplayEdgeCases(t *testing.T) {
	base := mem.PMBase
	cases := []struct {
		name   string
		events []trace.Event
		want   Stats
	}{
		{
			name: "fence with no prior store",
			events: []trace.Event{
				{Kind: trace.KFence, TID: 0, Time: 1},
				{Kind: trace.KFence, TID: 1, Time: 2},
			},
			want: Stats{},
		},
		{
			name: "NT store crossing a line boundary",
			events: []trace.Event{
				// 8 bytes starting 4 bytes before a line boundary: 2 lines.
				{Kind: trace.KStoreNT, TID: 0, Time: 1, Addr: base + 60, Size: 8},
			},
			want: Stats{NTWrites: 2},
		},
		{
			name: "duplicate flush of the same line",
			events: []trace.Event{
				// Cacheable store allocates the line (1 PM read for the
				// fill); each CLWB of a still-cached line writes it back.
				{Kind: trace.KStore, TID: 0, Time: 1, Addr: base, Size: 8},
				{Kind: trace.KFlush, TID: 0, Time: 2, Addr: base, Size: 64},
				{Kind: trace.KFlush, TID: 0, Time: 3, Addr: base, Size: 64},
			},
			want: Stats{PMReads: 1, PMWrites: 2},
		},
		{
			name: "flush after NT store writes nothing",
			events: []trace.Event{
				// The NT store bypasses and invalidates the caches, so the
				// following CLWB finds nothing to write back.
				{Kind: trace.KStore, TID: 0, Time: 1, Addr: base, Size: 8},
				{Kind: trace.KStoreNT, TID: 0, Time: 2, Addr: base, Size: 64},
				{Kind: trace.KFlush, TID: 0, Time: 3, Addr: base, Size: 64},
			},
			want: Stats{PMReads: 1, NTWrites: 1},
		},
		{
			name: "flush of a never-cached line",
			events: []trace.Event{
				{Kind: trace.KFlush, TID: 0, Time: 1, Addr: base + 4096, Size: 64},
			},
			want: Stats{},
		},
		{
			name: "zero-size accesses touch nothing",
			events: []trace.Event{
				{Kind: trace.KStore, TID: 0, Time: 1, Addr: base, Size: 0},
				{Kind: trace.KStoreNT, TID: 0, Time: 2, Addr: base, Size: 0},
				{Kind: trace.KLoad, TID: 0, Time: 3, Addr: base, Size: 0},
				{Kind: trace.KFlush, TID: 0, Time: 4, Addr: base, Size: 0},
			},
			want: Stats{},
		},
		{
			name: "TID beyond core count wraps",
			events: []trace.Event{
				// Replay folds TIDs into the configured core count; a TID
				// equal to Threads lands on core 0.
				{Kind: trace.KStore, TID: 4, Time: 1, Addr: base, Size: 8},
				{Kind: trace.KLoad, TID: 0, Time: 2, Addr: base, Size: 8},
			},
			want: Stats{PMReads: 1, L1Hits: 1},
		},
		{
			name: "transaction markers are memory no-ops",
			events: []trace.Event{
				{Kind: trace.KTxBegin, TID: 0, Time: 1},
				{Kind: trace.KUserData, TID: 0, Time: 2, Size: 64},
				{Kind: trace.KTxEnd, TID: 0, Time: 3},
			},
			want: Stats{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &trace.Trace{App: "edge", Layer: "native", Threads: 4, Events: tc.events}

			got, err := ReplaySource(New(DefaultConfig()), trace.NewSliceSource(tr))
			if err != nil {
				t.Fatalf("ReplaySource: %v", err)
			}
			if got != tc.want {
				t.Errorf("ReplaySource stats = %+v, want %+v", got, tc.want)
			}

			// The per-event path (a source without NextChunk) must agree
			// exactly with the chunked one.
			perEvent, err := ReplaySource(New(DefaultConfig()), struct{ trace.EventSource }{trace.NewSliceSource(tr)})
			if err != nil {
				t.Fatalf("ReplaySource per event: %v", err)
			}
			if perEvent != got {
				t.Errorf("per-event stats = %+v, chunked = %+v", perEvent, got)
			}
		})
	}
}
