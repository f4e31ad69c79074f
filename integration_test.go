package whisper

// System-level integration tests: these cut across the substrate layers
// the way the paper's methodology does — run a real application, then feed
// its trace to the analyses, the cache simulator, and the functional HOPS
// machine, and inject crashes into full application stacks.

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/apps/echo"
	"github.com/whisper-pm/whisper/internal/apps/fsapps"
	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/apps/vacation"
	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/hops"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmfs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestTraceDrivesHOPSMachine replays a real application's PM stores and
// fences through the functional HOPS persist-buffer machine and checks the
// Buffered Epoch Persistency invariants over the resulting drain order —
// the §6.2 hardware rules validated against §3's software.
func TestTraceDrivesHOPSMachine(t *testing.T) {
	for _, name := range []string{"hashmap", "vacation", "ycsb"} {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(name, Config{Clients: 4, Ops: 30, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			m := hops.NewMachine(4, hops.DefaultConfig())
			dfences := 0
			for _, e := range rep.Trace.tr.Events {
				tid := int(e.TID) % 4
				switch e.Kind {
				case trace.KStore, trace.KStoreNT:
					for _, l := range mem.Lines(e.Addr, int(e.Size)) {
						m.Store(tid, l, uint64(e.Time))
					}
				case trace.KFence:
					// Alternate: most fences are ordering-only.
					if dfences%8 == 7 {
						m.DFence(tid)
					} else {
						m.OFence(tid)
					}
					dfences++
				}
			}
			m.DrainAll()
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("%s: BEP invariant violated: %v", name, err)
			}
			st := m.Stats()
			if st.Stores == 0 || st.OFences == 0 {
				t.Fatalf("%s: machine saw no traffic: %+v", name, st)
			}
			// Multi-versioning must actually occur on real workloads
			// (Consequence 6: self-dependencies are common).
			if st.MultiVersions == 0 {
				t.Errorf("%s: no multi-versioned lines buffered", name)
			}
		})
	}
}

// TestTraceDrivesCacheSim replays a volatile-traced run through the cache
// hierarchy and sanity-checks the classification: PM traffic must reach
// PM, DRAM traffic must not.
func TestTraceDrivesCacheSim(t *testing.T) {
	rt := persist.NewRuntime("hashmap", "nvml", 2, persist.Config{TraceVolatile: true})
	pool := nvml.Open(rt, 4096, nvml.Options{})
	hashstore.RunWorkload(rt, pool, 256, 2, 40, 5)

	h := cachesim.New(cachesim.DefaultConfig())
	st, err := cachesim.ReplaySource(h, trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if st.MemAccesses() == 0 {
		t.Fatal("no memory accesses reached the hierarchy")
	}
	if st.PMWrites+st.NTWrites == 0 {
		t.Fatal("no PM write-backs despite flushes")
	}
	if st.L1Hits == 0 {
		t.Fatal("no locality at all — cache model broken")
	}
	if st.DRAMReads == 0 {
		t.Fatal("volatile events did not reach DRAM classification")
	}
}

// TestEveryAppSurvivesAdversarialCrash runs each transactional stack,
// crashes it adversarially, recovers, and checks structural consistency.
func TestEveryAppSurvivesAdversarialCrash(t *testing.T) {
	t.Run("echo", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			rt := persist.NewRuntime("echo", "native", 2, persist.Config{})
			s := echo.RunWorkload(rt, echo.Config{Buckets: 128, SlabBytes: 4 << 20, BatchSize: 8}, 2, 4, seed)
			rt.Crash(pmem.Adversarial, seed)
			s.Recover()
			// Recovery must not panic and the index must be walkable.
		}
	})
	t.Run("vacation", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			rt := persist.NewRuntime("vacation", "mnemosyne", 2, persist.Config{})
			heap := mnemosyne.New(rt, 16384, mnemosyne.Options{})
			m := vacation.RunWorkload(rt, heap, 32, 2, 10, seed)
			rt.Crash(pmem.Adversarial, seed)
			heap.Recover(rt.Thread(0), true)
			if !m.CheckTrees(0) {
				t.Fatalf("seed %d: red-black invariants violated after crash", seed)
			}
		}
	})
	t.Run("hashmap", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			rt := persist.NewRuntime("hashmap", "nvml", 2, persist.Config{})
			pool := nvml.Open(rt, 4096, nvml.Options{})
			m := hashstore.RunWorkload(rt, pool, 256, 2, 20, seed)
			before := m.Len()
			rt.Crash(pmem.Adversarial, seed)
			pool.Recover(rt.Thread(0))
			m2 := hashstore.Attach(rt, pool, 256)
			got := m2.CountPersistent(0)
			// All transactions committed before the crash: every insert
			// must have survived.
			if got != before {
				t.Fatalf("seed %d: %d entries survived of %d committed", seed, got, before)
			}
		}
	})
	t.Run("pmfs-exim", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			rt := persist.NewRuntime("exim", "pmfs", 2, persist.Config{})
			fs := pmfs.Format(rt, rt.Thread(0), pmfs.Options{Inodes: 512, Blocks: 2048})
			if err := fsapps.RunExim(rt, fs, 2, 5, 2, seed); err != nil {
				t.Fatal(err)
			}
			rt.Crash(pmem.Adversarial, seed)
			fs.Recover(rt.Thread(0))
			// Completed deliveries must be readable.
			data, err := fs.ReadAt(rt.Thread(0), "/log/mainlog", 0, 1<<20)
			if err != nil || len(data) == 0 {
				t.Fatalf("seed %d: delivery log unreadable: %v", seed, err)
			}
		}
	})
}

// TestHeadlineFindings asserts the paper's abstract across the whole
// suite in one go (scaled down).
func TestHeadlineFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep")
	}
	reports, err := RunAll(Config{Ops: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var singles, self, cross float64
	for _, r := range reports {
		singles += r.SingletonFraction
		self += r.SelfDeps
		cross += r.CrossDeps
	}
	n := float64(len(reports))
	if avg := singles / n; avg < 0.55 || avg > 0.95 {
		t.Errorf("average singleton fraction = %.2f, paper ~0.75", avg)
	}
	if self/n < 0.4 {
		t.Errorf("average self-deps = %.2f, paper ~0.5-0.8", self/n)
	}
	if cross/n > 0.10 {
		t.Errorf("average cross-deps = %.2f, paper << 0.1", cross/n)
	}
	// Transactions implemented with 5..50 ordering points for most apps.
	in := 0
	for _, r := range reports {
		if r.MedianTxEpochs >= 4 && r.MedianTxEpochs <= 50 {
			in++
		}
	}
	if in < 6 {
		t.Errorf("only %d/11 apps in the 4..50 epochs/tx band", in)
	}
}

// TestFig10ShapeOnRealTraces asserts the Figure 10 ordering on actual
// application traces (not synthetic ones).
func TestFig10ShapeOnRealTraces(t *testing.T) {
	for _, name := range []string{"hashmap", "ycsb"} {
		rep, err := Run(name, Config{Ops: 50, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		norm := SimulateHOPS(rep.Trace, DefaultHOPSConfig())
		chain := []string{"IDEAL (NON-CC)", "HOPS (PWQ)", "HOPS (NVM)", "x86-64 (PWQ)", "x86-64 (NVM)"}
		for i := 1; i < len(chain); i++ {
			if norm[chain[i-1]] > norm[chain[i]]+1e-9 {
				t.Errorf("%s: %s (%.3f) slower than %s (%.3f)",
					name, chain[i-1], norm[chain[i-1]], chain[i], norm[chain[i]])
			}
		}
	}
}

// TestRecoveryIdempotent recovers twice after a crash on each layer; the
// second recovery must be a no-op.
func TestRecoveryIdempotent(t *testing.T) {
	rt := persist.NewRuntime("idem", "nvml", 1, persist.Config{})
	pool := nvml.Open(rt, 2048, nvml.Options{})
	m := hashstore.New(rt, pool, 64)
	for k := uint64(0); k < 12; k++ {
		m.Insert(0, k, k)
	}
	rt.Crash(pmem.Adversarial, 77)
	pool.Recover(rt.Thread(0))
	a := hashstore.Attach(rt, pool, 64).CountPersistent(0)
	pool.Recover(rt.Thread(0))
	b := hashstore.Attach(rt, pool, 64).CountPersistent(0)
	if a != b {
		t.Fatalf("recovery not idempotent: %d then %d", a, b)
	}
}

// TestScaleUp exercises a longer run end to end (guarded by -short) to
// shake out capacity issues: log wraps, allocator churn, directory growth.
func TestScaleUp(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	rt := persist.NewRuntime("scale", "nvml", 4, persist.Config{})
	pool := nvml.Open(rt, 1<<15, nvml.Options{})
	m := hashstore.RunWorkload(rt, pool, 4096, 4, 2000, 19)
	if m.Len() < 7000 {
		t.Fatalf("expected ~8000 inserts, got %d", m.Len())
	}
	a := epoch.Analyze(rt.Trace)
	if a.TotalEpochs < 50000 {
		t.Fatalf("epochs = %d", a.TotalEpochs)
	}
	// The pipeline must agree with the materialized analysis at scale.
	fr, err := analyzeFused(trace.NewSliceSource(rt.Trace), FusedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Report.TotalEpochs != a.TotalEpochs {
		t.Fatal("pipeline analysis diverged")
	}
}

// TestPMFSDeepStress drives many mixed operations with periodic crashes.
func TestPMFSDeepStress(t *testing.T) {
	rt := persist.NewRuntime("stress", "pmfs", 1, persist.Config{})
	th := rt.Thread(0)
	fs := pmfs.Format(rt, th, pmfs.Options{Inodes: 512, Blocks: 4096})
	if err := fs.Mkdir(th, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(th, "/a/b"); err != nil {
		t.Fatal(err)
	}
	live := map[string][]byte{}
	for i := 0; i < 120; i++ {
		path := fmt.Sprintf("/a/b/f%03d", i%40)
		switch i % 4 {
		case 0:
			if _, ok := live[path]; !ok {
				if err := fs.Create(th, path); err != nil {
					t.Fatalf("create %s: %v", path, err)
				}
				live[path] = nil
			}
		case 1:
			if _, ok := live[path]; ok {
				body := []byte(fmt.Sprintf("content-%d", i))
				if err := fs.WriteAt(th, path, 0, body); err != nil {
					t.Fatal(err)
				}
				live[path] = body
			}
		case 2:
			if want, ok := live[path]; ok && want != nil {
				got, err := fs.ReadAt(th, path, 0, len(want))
				if err != nil || string(got) != string(want) {
					t.Fatalf("read %s = %q, %v; want %q", path, got, err, want)
				}
			}
		case 3:
			if i%12 == 3 {
				rt.Crash(pmem.Adversarial, int64(i))
				fs.Recover(th)
			}
		}
	}
	// Final verification pass.
	for path, want := range live {
		if want == nil {
			continue
		}
		got, err := fs.ReadAt(th, path, 0, len(want))
		if err != nil || string(got) != string(want) {
			t.Fatalf("final %s = %q, %v", path, got, err)
		}
	}
}
