package alloc

import (
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newRT() (*persist.Runtime, *persist.Thread) {
	rt := persist.NewRuntime("alloc-test", "native", 1, persist.Config{})
	return rt, rt.Thread(0)
}

// --- SingleSlab ----------------------------------------------------------

func TestSingleSlabAllocFree(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 4096)
	a := s.Alloc(th, 100)
	b := s.Alloc(th, 200)
	if a == 0 || b == 0 {
		t.Fatal("alloc failed")
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	th.Store(a, []byte("payload-a"))
	th.Store(b, []byte("payload-b"))
	s.Free(th, a)
	s.Free(th, b)
	// After freeing everything the slab should coalesce back toward one
	// block (coalescing is forward-only, so at most a couple of fragments).
	if s.FreeBlocks() > 2 {
		t.Errorf("FreeBlocks = %d after freeing all, want <= 2", s.FreeBlocks())
	}
}

func TestSingleSlabExhaustion(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 256)
	var got []mem.Addr
	for {
		a := s.Alloc(th, 32)
		if a == 0 {
			break
		}
		got = append(got, a)
	}
	if len(got) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Everything must fit in the slab.
	if len(got) > 256/(32+headerSize)+1 {
		t.Errorf("too many allocations: %d", len(got))
	}
}

func TestSingleSlabDoubleFreePanics(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 1024)
	a := s.Alloc(th, 64)
	s.Free(th, a)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	s.Free(th, a)
}

func TestSingleSlabMetadataIsDurable(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 2048)
	a := s.Alloc(th, 64)
	rt.Crash(pmem.Strict, 1)
	s.Recover(th)
	// The allocation must survive the crash: recovering must not hand the
	// same block out again.
	b := s.Alloc(th, 64)
	if b == a {
		t.Fatal("recovered allocator reissued a live block")
	}
}

func TestSingleSlabRecoverMatchesFreeList(t *testing.T) {
	f := func(ops []bool) bool {
		rt, th := newRT()
		s := NewSingleSlab(rt, th, 8192)
		var live []mem.Addr
		for _, isAlloc := range ops {
			if isAlloc || len(live) == 0 {
				if a := s.Alloc(th, 48); a != 0 {
					live = append(live, a)
				}
			} else {
				s.Free(th, live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		before := s.FreeBlocks()
		s.Recover(th)
		return s.FreeBlocks() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSlabSetStateEpoch(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 1024)
	a := s.Alloc(th, 64)
	n := rt.Trace.CountKind(trace.KFence)
	s.SetState(th, a, StateVolatile)
	if got := rt.Trace.CountKind(trace.KFence) - n; got != 1 {
		t.Errorf("SetState used %d epochs, want exactly 1", got)
	}
}

// --- MultiSlab -----------------------------------------------------------

func TestMultiSlabAllocFree(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 128)
	a := m.Alloc(th, 20) // -> 32-byte class
	b := m.Alloc(th, 20)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad allocations %v %v", a, b)
	}
	if m.Allocated() != 2 {
		t.Fatalf("Allocated = %d", m.Allocated())
	}
	m.Free(th, a)
	m.Free(th, b)
	if m.Allocated() != 0 {
		t.Fatalf("Allocated = %d after frees", m.Allocated())
	}
}

func TestMultiSlabSingletonEpochPerAlloc(t *testing.T) {
	// The paper: Mnemosyne allocs are single sub-10-byte singleton epochs.
	rt, th := newRT()
	m := NewMultiSlab(rt, 128)
	fences := rt.Trace.CountKind(trace.KFence)
	stores := rt.Trace.CountKind(trace.KStore)
	m.Alloc(th, 64)
	if got := rt.Trace.CountKind(trace.KFence) - fences; got != 1 {
		t.Errorf("alloc used %d epochs, want 1", got)
	}
	if got := rt.Trace.CountKind(trace.KStore) - stores; got != 1 {
		t.Errorf("alloc used %d stores, want 1", got)
	}
	// The single store must be 8 bytes (a bitmap word).
	last := rt.Trace.Filter(func(e trace.Event) bool { return e.Kind == trace.KStore })
	if sz := last[len(last)-1].Size; sz != 8 {
		t.Errorf("alloc store size = %d, want 8", sz)
	}
}

func TestMultiSlabClassSelection(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 64)
	seen := map[mem.Addr]bool{}
	for _, size := range []int{1, 16, 17, 100, 4096} {
		a := m.Alloc(th, size)
		if a == 0 {
			t.Fatalf("alloc(%d) failed", size)
		}
		if seen[a] {
			t.Fatalf("alloc(%d) reused address %v", size, a)
		}
		seen[a] = true
	}
}

func TestMultiSlabOversizePanics(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 64)
	defer func() {
		if recover() == nil {
			t.Error("oversize alloc did not panic")
		}
	}()
	m.Alloc(th, 100000)
}

func TestMultiSlabRecover(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 128)
	a := m.Alloc(th, 64)
	_ = m.Alloc(th, 64)
	m.Free(th, a)
	rt.Crash(pmem.Strict, 1)
	m.Recover(th)
	if m.Allocated() != 1 {
		t.Fatalf("Allocated after recover = %d, want 1", m.Allocated())
	}
	// Freshly allocated blocks must not collide with the surviving one.
	for i := 0; i < 10; i++ {
		if b := m.Alloc(th, 64); b == a {
			// a was freed before the crash and may be reused — but only once.
			a = 0
			continue
		}
	}
}

func TestMultiSlabLeakCheck(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 128)
	kept := m.Alloc(th, 64)
	leaked := m.Alloc(th, 64)
	_ = leaked
	rt.Crash(pmem.Strict, 1)
	m.Recover(th)
	leaks := m.LeakCheck(th, map[mem.Addr]bool{kept: true})
	if len(leaks) != 1 || leaks[0] != leaked {
		t.Fatalf("LeakCheck = %v, want [%v]", leaks, leaked)
	}
}

// --- Logged --------------------------------------------------------------

func TestLoggedAllocFree(t *testing.T) {
	rt, th := newRT()
	g := NewLogged(rt, 128)
	a := g.Alloc(th, 40)
	if a == 0 {
		t.Fatal("alloc failed")
	}
	th.Store(a, []byte("hello"))
	if g.Allocated() != 1 {
		t.Fatalf("Allocated = %d", g.Allocated())
	}
	g.Free(th, a)
	if g.Allocated() != 0 {
		t.Fatalf("Allocated = %d after free", g.Allocated())
	}
}

func TestLoggedAllocEpochCount(t *testing.T) {
	// NVML-style allocation costs several epochs (log write, commit,
	// apply, clear, header init) — the write-amplification story of §5.2.
	rt, th := newRT()
	g := NewLogged(rt, 128)
	n := rt.Trace.CountKind(trace.KFence)
	g.Alloc(th, 40)
	if got := rt.Trace.CountKind(trace.KFence) - n; got != 5 {
		t.Errorf("logged alloc used %d epochs, want 5", got)
	}
}

func TestLoggedCrashAtomicity(t *testing.T) {
	// Crash the allocator right after every persistent event of an
	// allocation, under both crash adversaries; after Recover the
	// allocation must have fully happened (bit set) or not at all.
	setup := func() (*persist.Runtime, *persist.Thread, *Logged) {
		rt, th := newRT()
		g := NewLogged(rt, 128)
		g.Alloc(th, 40) // one stable allocation
		return rt, th, g
	}
	rt, th, g := setup()
	n := rt.CountEvents(func() { g.Alloc(th, 40) })
	if n < 4 {
		t.Fatalf("allocation emitted only %d events", n)
	}
	t.Logf("sweeping %d crash points per mode", n)
	for _, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
		var seen [3]bool
		for k := 1; k <= n; k++ {
			rt, th, g := setup()
			if !rt.StopAfter(k, func() { g.Alloc(th, 40) }) {
				t.Fatalf("%v: stop after event %d of %d did not fire", mode, k, n)
			}
			rt.Crash(mode, int64(k))
			g.Recover(th)
			got := g.Allocated()
			if got != 1 && got != 2 {
				t.Fatalf("%v: crash after event %d of %d: Allocated = %d, want 1 or 2", mode, k, n, got)
			}
			seen[got] = true
		}
		if !seen[1] || !seen[2] {
			t.Fatalf("%v: sweep saw only one outcome (lost=%v kept=%v)", mode, seen[1], seen[2])
		}
	}
}

func TestLoggedRecoverReplaysCommittedRecord(t *testing.T) {
	rt, th := newRT()
	g := NewLogged(rt, 128)
	// Hand-craft the dangerous window: record committed, mutation not yet
	// durable. Write a committed record pointing at a bitmap word.
	c := g.inner.classes[0]
	word := c.bitmaps
	th.StoreU64(g.logs[0], uint64(word))
	th.StoreU64(g.logs[0]+8, 0b1)
	th.Flush(g.logs[0], 16)
	th.Fence()
	th.StoreU64(g.logs[0]+16, logCommitted)
	th.Flush(g.logs[0]+16, 8)
	th.Fence()

	rt.Crash(pmem.Strict, 9)
	g.Recover(th)
	if got := th.LoadU64(word); got != 1 {
		t.Fatalf("redo record not replayed: word = %#x", got)
	}
	if g.Allocated() != 1 {
		t.Fatalf("Allocated = %d, want 1 (replayed allocation)", g.Allocated())
	}
}
