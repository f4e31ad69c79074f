package cachesim

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func small() *Hierarchy {
	return New(Config{L1Size: 1024, L1Ways: 2, L2Size: 4096, L2Ways: 4, Threads: 2})
}

func TestColdMissThenHit(t *testing.T) {
	h := small()
	h.Read(0, mem.PMBase, 8)
	s := h.Stats()
	if s.PMReads != 1 || s.L1Hits != 0 {
		t.Fatalf("cold read stats: %+v", s)
	}
	h.Read(0, mem.PMBase, 8)
	if h.Stats().L1Hits != 1 {
		t.Fatalf("warm read not an L1 hit: %+v", h.Stats())
	}
}

func TestDRAMvsPMClassification(t *testing.T) {
	h := small()
	h.Read(0, 0x1000, 8)     // DRAM
	h.Read(0, mem.PMBase, 8) // PM
	h.Write(0, 0x2000, 8)    // DRAM (write-allocate read)
	h.Write(0, mem.PMBase+64, 8)
	s := h.Stats()
	if s.DRAMReads != 2 || s.PMReads != 2 {
		t.Fatalf("classification: %+v", s)
	}
}

func TestWriteInvalidatesOtherCores(t *testing.T) {
	h := small()
	h.Read(0, mem.PMBase, 8)
	h.Read(1, mem.PMBase, 8) // core 1 gets it (remote or L2)
	h.Write(1, mem.PMBase, 8)
	// Core 0's copy must now be invalid: its next read can't be an L1 hit.
	before := h.Stats().L1Hits
	h.Read(0, mem.PMBase, 8)
	s := h.Stats()
	if s.L1Hits != before {
		t.Fatal("read after remote write hit a stale L1 line")
	}
}

func TestRemoteTransfer(t *testing.T) {
	h := small()
	h.Read(0, mem.PMBase, 8)
	h.Read(1, mem.PMBase, 8)
	s := h.Stats()
	if s.RemoteHits != 1 {
		t.Fatalf("RemoteHits = %d, want 1 (cache-to-cache)", s.RemoteHits)
	}
	if s.PMReads != 1 {
		t.Fatalf("PMReads = %d, want 1 (only the cold miss)", s.PMReads)
	}
}

func TestStickyM(t *testing.T) {
	h := small()
	if h.StickyOwner(mem.LineOf(mem.PMBase)) != -1 {
		t.Fatal("sticky owner before any write")
	}
	h.Write(1, mem.PMBase, 8)
	if h.StickyOwner(mem.LineOf(mem.PMBase)) != 1 {
		t.Fatal("sticky owner not recorded")
	}
	// Sticky-M persists across eviction: thrash the set.
	for i := 0; i < 100; i++ {
		h.Write(0, mem.PMBase+mem.Addr(4096*i), 8)
	}
	if h.StickyOwner(mem.LineOf(mem.PMBase)) != 0 {
		t.Fatal("sticky owner not updated by later writer")
	}
}

func TestEvictionsOccur(t *testing.T) {
	h := small() // 1 KB L1, 2-way: 8 sets -> same set every 512 bytes
	for i := 0; i < 64; i++ {
		h.Read(0, mem.PMBase+mem.Addr(i*1024), 8)
	}
	if h.Stats().Evictions == 0 {
		t.Fatal("no evictions despite thrashing")
	}
}

func TestNTBypassesCache(t *testing.T) {
	h := small()
	h.WriteNT(0, mem.PMBase, 128)
	s := h.Stats()
	if s.NTWrites != 2 {
		t.Fatalf("NTWrites = %d, want 2 lines", s.NTWrites)
	}
	// A following read must miss (NT did not allocate).
	h.Read(0, mem.PMBase, 8)
	if h.Stats().L1Hits != 0 {
		t.Fatal("NT write allocated into the cache")
	}
}

func TestFlushCountsWriteback(t *testing.T) {
	h := small()
	h.Write(0, mem.PMBase, 8)
	h.Flush(0, mem.PMBase, 8)
	if h.Stats().PMWrites != 1 {
		t.Fatalf("PMWrites = %d, want 1", h.Stats().PMWrites)
	}
	// Flushing an uncached line is a no-op.
	h.Flush(0, mem.PMBase+8192, 8)
	if h.Stats().PMWrites != 1 {
		t.Fatal("flush of uncached line counted")
	}
}

func TestReplayTrace(t *testing.T) {
	tr := &trace.Trace{Threads: 2}
	tr.Append(trace.Event{Kind: trace.KStore, TID: 0, Addr: mem.PMBase, Size: 8})
	tr.Append(trace.Event{Kind: trace.KFlush, TID: 0, Addr: mem.PMBase, Size: 8})
	tr.Append(trace.Event{Kind: trace.KVLoad, TID: 1, Addr: 0x5000, Size: 8})
	tr.Append(trace.Event{Kind: trace.KStoreNT, TID: 0, Addr: mem.PMBase + 64, Size: 64})
	h := New(DefaultConfig())
	s, err := ReplaySource(h, trace.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if s.PMWrites != 1 || s.NTWrites != 1 || s.DRAMReads != 1 {
		t.Fatalf("replay stats: %+v", s)
	}
	if s.MemAccesses() == 0 {
		t.Fatal("MemAccesses zero")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	h := New(DefaultConfig())
	if len(h.l1) != 4 || len(h.l2) != 4 {
		t.Fatal("default config should have 4 cores")
	}
}
