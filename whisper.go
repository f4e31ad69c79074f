// Package whisper is the public API of the WHISPER reproduction: the
// Wisconsin–HP Labs Suite for Persistence (Nalli et al., ASPLOS 2017)
// reimplemented in Go on a simulated persistent-memory substrate, together
// with the paper's epoch analysis and the HOPS hardware evaluation.
//
// The suite contains the paper's ten applications across three access
// layers (Table 1). Run one benchmark and analyze it:
//
//	rep, err := whisper.Run("ycsb", whisper.Config{Clients: 4, Ops: 1000, Seed: 1})
//	fmt.Println(rep.EpochsPerSecond, rep.MedianTxEpochs)
//
// or replay its trace under the five Figure-10 persistence models:
//
//	norm := whisper.SimulateHOPS(rep.Trace, whisper.DefaultHOPSConfig())
//	fmt.Println(norm["HOPS (NVM)"]) // normalized to the x86-64 NVM baseline
package whisper

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/whisper-pm/whisper/internal/apps/ctree"
	"github.com/whisper-pm/whisper/internal/apps/echo"
	"github.com/whisper-pm/whisper/internal/apps/fsapps"
	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/apps/memcache"
	"github.com/whisper-pm/whisper/internal/apps/nstore"
	"github.com/whisper-pm/whisper/internal/apps/redisstore"
	"github.com/whisper-pm/whisper/internal/apps/vacation"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmfs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Config scales a benchmark run. The zero value picks suite defaults
// matched to laptop-scale simulation; the paper's full configurations
// (millions of transactions) are reachable by raising Ops.
type Config struct {
	// Clients is the number of logical client threads (paper: 4 for most
	// apps, 8 for the filesystem apps). 0 = the paper's count.
	Clients int
	// Ops is the number of operations/transactions per client. 0 = a
	// suite default sized for seconds-long runs.
	Ops int
	// Seed drives every random choice; runs are reproducible per seed.
	Seed int64
}

// Trace wraps a recorded PM trace. It is opaque; use Report for analysis
// results, Encode/DecodeTrace for persistence to disk.
type Trace struct {
	tr *trace.Trace
}

// App returns the application name recorded in the trace.
func (t *Trace) App() string { return t.tr.App }

// Layer returns the access layer ("native", "mnemosyne", "nvml", "pmfs").
func (t *Trace) Layer() string { return t.tr.Layer }

// Events returns the number of recorded PM events.
func (t *Trace) Events() int { return t.tr.Len() }

// Encode writes the trace in the binary trace format.
func (t *Trace) Encode(w io.Writer) error { return trace.Encode(w, t.tr) }

// DecodeTrace reads a trace previously written with Encode.
func DecodeTrace(r io.Reader) (*Trace, error) {
	tr, err := trace.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// Benchmark describes one suite member.
type Benchmark struct {
	// Name is the suite key ("echo", "ycsb", "tpcc", "redis", "ctree",
	// "hashmap", "vacation", "memcached", "nfs", "exim", "mysql").
	Name string
	// Layer is the PM access layer.
	Layer string
	// Workload describes the driving workload (Table 1's third column).
	Workload string
	// Simulatable marks the subset used for the gem5-style studies
	// (Figures 6 and 10).
	Simulatable bool

	defaultClients int
	defaultOps     int
	run            func(rt *persist.Runtime, clients, ops int, seed int64)
}

// Benchmarks returns the suite in Table 1 order.
func Benchmarks() []Benchmark {
	out := make([]Benchmark, len(suite))
	copy(out, suite)
	return out
}

// Names returns the benchmark names in suite order.
func Names() []string {
	var names []string
	for _, b := range suite {
		names = append(names, b.Name)
	}
	return names
}

var suite = []Benchmark{
	{
		Name: "echo", Layer: "native", Simulatable: true,
		Workload:       "echo-test / 4 clients, batched update transactions",
		defaultClients: 4, defaultOps: 40,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			echo.RunWorkload(rt, echo.Config{}, clients, ops, seed)
		},
	},
	{
		Name: "ycsb", Layer: "native", Simulatable: true,
		Workload:       "YCSB-like / 4 clients, 80% writes (N-store OPTWAL)",
		defaultClients: 4, defaultOps: 300,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			nstore.RunYCSB(rt, nstore.Config{}, clients, ops, 7, 80, seed)
		},
	},
	{
		Name: "tpcc", Layer: "native", Simulatable: false,
		Workload:       "TPC-C-like / 4 clients, 40% writes (N-store OPTWAL)",
		defaultClients: 4, defaultOps: 150,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			nstore.RunTPCC(rt, nstore.Config{}, clients, ops, seed)
		},
	},
	{
		Name: "redis", Layer: "nvml", Simulatable: true,
		Workload:       "redis-cli lru-test / 1 million keys",
		defaultClients: 1, defaultOps: 1200,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			pool := nvml.Open(rt, 1<<15, nvml.Options{})
			redisstore.RunWorkload(rt, pool, 4096, 1<<20, clients*ops, seed)
		},
	},
	{
		Name: "ctree", Layer: "nvml", Simulatable: true,
		Workload:       "4 clients, INSERT transactions",
		defaultClients: 4, defaultOps: 250,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			pool := nvml.Open(rt, 1<<15, nvml.Options{})
			ctree.RunWorkload(rt, pool, clients, ops, seed)
		},
	},
	{
		Name: "hashmap", Layer: "nvml", Simulatable: true,
		Workload:       "4 clients, INSERT transactions",
		defaultClients: 4, defaultOps: 250,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			pool := nvml.Open(rt, 1<<15, nvml.Options{})
			hashstore.RunWorkload(rt, pool, 4096, clients, ops, seed)
		},
	},
	{
		Name: "vacation", Layer: "mnemosyne", Simulatable: true,
		Workload:       "4 clients, reservation mix, red-black trees",
		defaultClients: 4, defaultOps: 200,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			heap := mnemosyne.New(rt, 1<<15, mnemosyne.Options{})
			vacation.RunWorkload(rt, heap, 512, clients, ops, seed)
		},
	},
	{
		Name: "memcached", Layer: "mnemosyne", Simulatable: false,
		Workload:       "memslap / 4 clients, 5% SET",
		defaultClients: 4, defaultOps: 500,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			heap := mnemosyne.New(rt, 1<<15, mnemosyne.Options{})
			memcache.RunWorkload(rt, heap, 4096, 1<<14, clients, ops, 5, seed)
		},
	},
	{
		Name: "nfs", Layer: "pmfs", Simulatable: false,
		Workload:       "filebench fileserver / 8 clients",
		defaultClients: 8, defaultOps: 60,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			fs := pmfs.Format(rt, rt.Thread(0), pmfs.Options{})
			if err := fsapps.RunNFS(rt, fs, clients, ops, seed); err != nil {
				panic(err)
			}
		},
	},
	{
		Name: "exim", Layer: "pmfs", Simulatable: false,
		Workload:       "postal / 8 clients, 250 mailboxes",
		defaultClients: 8, defaultOps: 20,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			fs := pmfs.Format(rt, rt.Thread(0), pmfs.Options{})
			if err := fsapps.RunExim(rt, fs, clients, ops, 8, seed); err != nil {
				panic(err)
			}
		},
	},
	{
		Name: "mysql", Layer: "pmfs", Simulatable: false,
		Workload:       "sysbench OLTP-complex / 4 clients",
		defaultClients: 4, defaultOps: 60,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			fs := pmfs.Format(rt, rt.Thread(0), pmfs.Options{})
			if err := fsapps.RunMySQL(rt, fs, clients, ops, seed); err != nil {
				panic(err)
			}
		},
	},
}

func find(name string) (*Benchmark, error) {
	for i := range suite {
		if suite[i].Name == name {
			return &suite[i], nil
		}
	}
	return nil, fmt.Errorf("whisper: unknown benchmark %q (have %v)", name, Names())
}

// size resolves cfg's client and op counts against the benchmark's
// defaults.
func (b *Benchmark) size(cfg Config) (clients, ops int) {
	clients, ops = cfg.Clients, cfg.Ops
	if clients <= 0 {
		clients = b.defaultClients
	}
	if ops <= 0 {
		ops = b.defaultOps
	}
	return clients, ops
}

// execute runs the benchmark to completion on rt and publishes its run
// metrics. A benchmark panic comes back as an error, so neither a pool
// worker nor a streaming producer can take down the process or wedge
// the analysis reading its events.
func (b *Benchmark) execute(rt *persist.Runtime, clients, ops int, seed int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("whisper: %s panicked: %v", b.Name, r)
		}
	}()
	start := time.Now()
	b.run(rt, clients, ops, seed)
	publishRunMetrics(b.Name, rt, time.Since(start), clients*ops)
	return nil
}

// Run executes the named benchmark and returns its analysis report with
// the raw trace attached. The retained trace feeds the same analysis
// pipeline as every streaming entry point.
func Run(name string, cfg Config) (*Report, error) {
	b, err := find(name)
	if err != nil {
		return nil, err
	}
	clients, ops := b.size(cfg)
	rt := persist.NewRuntime(b.Name, b.Layer, clients, persist.Config{})
	if err := b.execute(rt, clients, ops, cfg.Seed); err != nil {
		return nil, err
	}
	fr, err := analyzeFused(trace.NewSliceSource(rt.Trace), FusedConfig{})
	if err != nil {
		return nil, err
	}
	fr.Report.Trace = &Trace{tr: rt.Trace}
	return fr.Report, nil
}

// RunAll executes every benchmark with cfg serially and returns reports in
// suite order.
func RunAll(cfg Config) ([]*Report, error) {
	return RunAllParallel(cfg, 1)
}

// RunAllParallel executes the suite with up to workers benchmarks running
// concurrently and returns reports in suite order. Every run owns its own
// device, clock, trace and scheduler, and all randomness derives from
// cfg.Seed, so the reports (and their traces) are bit-identical to serial
// execution regardless of worker count or completion order. workers <= 1
// runs serially; workers above the suite size are clamped.
func RunAllParallel(cfg Config, workers int) ([]*Report, error) {
	workers = max(1, min(workers, len(suite)))
	out := make([]*Report, len(suite))
	errs := make([]error, len(suite))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = Run(suite[i].Name, cfg)
			}
		}()
	}
	for i := range suite {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortedCopy returns values sorted ascending (small helper for reports).
func SortedCopy(v []int) []int {
	out := make([]int, len(v))
	copy(out, v)
	sort.Ints(out)
	return out
}
