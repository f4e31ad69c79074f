package whisper

import (
	"io"
	"sync"

	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// The analysis pipeline. Every entry point reduces to one event source —
// a live benchmark (startStream), a saved trace file (trace.NewReader),
// or a retained trace (trace.NewSliceSource) — passed to analyzeFused,
// which runs the epoch analysis and fans the same pass out to the
// durability-ordering sanitizer and the cache-hierarchy simulator when
// they are selected (the Bentō observation: cross-cutting PM analyses
// share the pass, not just the trace). The source is executed or decoded
// exactly once, and each consumer's output is byte-identical to its
// standalone run over the retained trace, which TestFusedMatchesStandalone
// asserts per suite member.

// FusedConfig selects the consumers riding the shared pass alongside the
// epoch analysis.
type FusedConfig struct {
	// Sanitize adds the durability-ordering sanitizer (FusedReport.San).
	Sanitize bool
	// Cache adds the Table 3 cache-hierarchy simulation
	// (FusedReport.Cache).
	Cache bool
}

// CacheStats is the cache-hierarchy accounting of one run: where every
// access was serviced (Figure 6's machinery), simulated on the paper's
// Table 3 geometry.
type CacheStats struct {
	// L1Hits, L2Hits, and RemoteHits are accesses serviced by the local
	// L1, the local L2, and another core's cache (coherence transfer).
	L1Hits     uint64
	L2Hits     uint64
	RemoteHits uint64
	// DRAMReads/DRAMWrites and PMReads/PMWrites are accesses that reached
	// memory, attributed by address range.
	DRAMReads  uint64
	DRAMWrites uint64
	PMReads    uint64
	PMWrites   uint64
	// NTWrites are non-temporal writes (cache-bypassing, straight to PM).
	NTWrites uint64
	// Evictions counts valid lines displaced from either level.
	Evictions uint64
}

// MemAccesses returns the number of accesses that reached memory.
func (s CacheStats) MemAccesses() uint64 {
	return s.DRAMReads + s.DRAMWrites + s.PMReads + s.PMWrites + s.NTWrites
}

// FusedReport bundles the outputs of one fused pass.
type FusedReport struct {
	// Report is the epoch analysis (always present; Trace is nil, as in
	// every streaming path).
	Report *Report
	// San is the sanitizer report, nil unless FusedConfig.Sanitize.
	San *SanReport
	// Cache is the cache-hierarchy accounting, nil unless
	// FusedConfig.Cache.
	Cache *CacheStats
}

// AnalyzeReaderFused streams a saved trace (either codec version)
// through the epoch analysis plus the consumers fcfg selects, decoding
// the file exactly once and never materializing it.
func AnalyzeReaderFused(r io.Reader, fcfg FusedConfig) (*FusedReport, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	return analyzeFused(rd, fcfg)
}

// RunStreamFused executes the named benchmark once and fans its live
// event stream out to the epoch analysis plus the consumers fcfg
// selects; the trace is never materialized. When traceOut is non-nil the
// stream is also tee'd to it in the chunked v2 format.
func RunStreamFused(name string, cfg Config, fcfg FusedConfig, traceOut io.Writer) (*FusedReport, error) {
	src, launch, err := startStream(name, cfg)
	if err != nil {
		return nil, err
	}
	var tw *trace.Writer
	if traceOut != nil {
		tw, err = trace.NewWriter(traceOut, src.meta)
		if err != nil {
			return nil, err
		}
	}
	launch()

	var consumer trace.EventSource = src
	if tw != nil {
		consumer = teeSource{src: src, w: tw}
	}
	rep, err := analyzeFused(consumer, fcfg)
	if err == nil && tw != nil {
		vl, vs := src.Volatile()
		err = tw.Close(vl, vs)
	}
	if err != nil {
		// Drain so the producer goroutine can always finish.
		for range src.ch {
		}
		return nil, err
	}
	return rep, nil
}

// analyzeFused fans src out to the selected consumers and joins their
// results. The epoch analysis runs on the calling goroutine; sanitizer
// and cache simulation (serial state machines) run on their own
// branches.
func analyzeFused(src trace.EventSource, fcfg FusedConfig) (*FusedReport, error) {
	n := 1
	if fcfg.Sanitize {
		n++
	}
	if fcfg.Cache {
		n++
	}
	if n == 1 {
		// Nothing to fan out: plain streaming analysis.
		a, err := epoch.AnalyzeStream(src)
		if err != nil {
			return nil, err
		}
		return &FusedReport{Report: newReport(a)}, nil
	}

	branches := trace.Fanout(src, n)
	var wg sync.WaitGroup
	var (
		sanRep   *pmsan.Report
		sanErr   error
		stats    cachesim.Stats
		cacheErr error
	)
	next := 1
	if fcfg.Sanitize {
		b := branches[next]
		next++
		wg.Add(1)
		go func() {
			defer wg.Done()
			sanRep, sanErr = pmsan.Run(b)
		}()
	}
	if fcfg.Cache {
		b := branches[next]
		next++
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, cacheErr = cachesim.ReplaySource(cachesim.New(cachesim.DefaultConfig()), b)
		}()
	}
	a, err := epoch.AnalyzeStream(branches[0])
	if err != nil {
		// Only a source error stops the analysis, and the fan-out
		// delivers it to every branch — but release ours explicitly so
		// the pump cannot stall on an undrained queue.
		branches[0].Close()
	}
	wg.Wait()
	if err == nil {
		err = sanErr
	}
	if err == nil {
		err = cacheErr
	}
	if err != nil {
		return nil, err
	}

	out := &FusedReport{Report: newReport(a)}
	if fcfg.Sanitize {
		out.San = &SanReport{rep: sanRep}
	}
	if fcfg.Cache {
		out.Cache = newCacheStats(stats)
	}
	return out, nil
}

// newCacheStats shapes the simulator's accounting into the public
// CacheStats.
func newCacheStats(s cachesim.Stats) *CacheStats {
	return &CacheStats{
		L1Hits:     s.L1Hits,
		L2Hits:     s.L2Hits,
		RemoteHits: s.RemoteHits,
		DRAMReads:  s.DRAMReads,
		DRAMWrites: s.DRAMWrites,
		PMReads:    s.PMReads,
		PMWrites:   s.PMWrites,
		NTWrites:   s.NTWrites,
		Evictions:  s.Evictions,
	}
}
