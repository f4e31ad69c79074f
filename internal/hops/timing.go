package hops

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Model selects the persistence implementation for the Figure 10 replay.
type Model int

const (
	// X86NVM is the baseline: clwb + sfence with durability at the NVM
	// device — every fence stalls for the full PM write latency.
	X86NVM Model = iota
	// X86PWQ is clwb + sfence with a persistent write queue at the memory
	// controller: fences stall only until the MC accepts the writes.
	X86PWQ
	// HOPSNVM is HOPS with durability at NVM: ofences are local TS bumps,
	// persist buffers drain in the background, and only dfences stall.
	HOPSNVM
	// HOPSPWQ is HOPS with a persistent write queue: the rare dfence
	// stalls shrink to MC acceptance latency.
	HOPSPWQ
	// Ideal ignores all ordering and durability (not crash-consistent):
	// the paper's upper bound.
	Ideal
)

var modelNames = [...]string{
	X86NVM: "x86-64 (NVM)", X86PWQ: "x86-64 (PWQ)",
	HOPSNVM: "HOPS (NVM)", HOPSPWQ: "HOPS (PWQ)", Ideal: "IDEAL (NON-CC)",
}

func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Models lists the Figure 10 configurations in presentation order.
var Models = []Model{X86NVM, X86PWQ, HOPSNVM, HOPSPWQ, Ideal}

// Result is the outcome of replaying one trace under one model.
type Result struct {
	Model Model
	// Cycles is the modelled execution time.
	Cycles mem.Cycles
	// StallCycles is the portion spent stalled on fences or
	// persist-buffer pressure.
	StallCycles mem.Cycles
	// Fences is the number of ordering points replayed; DFences the
	// number treated as durability fences (HOPS models only).
	Fences  int
	DFences int
}

// ReplayObs carries optional observability instruments for a replay. All
// fields may be nil (the zero ReplayObs disables everything): instruments
// record into the obs layer and never influence the modelled timing.
type ReplayObs struct {
	// Occupancy samples the persist-buffer occupancy (scheduled + open
	// entries) after each buffered store for the HOPS models, and the
	// pending-line set size at each fence for the x86 models.
	Occupancy *obs.Histogram
	// DrainStall records the cycles of each nonzero stall: full-PB
	// foreground drains and dfence waits under HOPS, fence drains on x86.
	DrainStall *obs.Histogram
}

// pbState is one thread's persist buffer in the timing replay. done holds
// completion times of entries already handed to the background drain
// engine (FIFO, nondecreasing); open counts entries of the current epoch
// still held in the buffer — BEP forbids draining an epoch before it
// closes, so they have no completion time yet.
type pbState struct {
	done []mem.Cycles
	open int
}

// Replay reruns tr's instruction stream under the given persistence model.
//
// The trace was produced by an execution whose clock charged each event a
// known cost (see persist.Thread); everything else in the inter-event gaps
// is application compute, volatile traffic, and loads. Replay keeps that
// compute identical and substitutes each model's ordering/durability
// behaviour for the recorded fence costs — the same-work, different-
// persistence-hardware comparison of Figure 10. Crucially, compute time
// lets the HOPS persist buffers drain in the background, which is where
// HOPS's advantage comes from.
//
// For the HOPS models, the last fence before each KTxEnd is a dfence
// (durability at commit) and fences outside any transaction are
// conservatively dfences; all other fences become ofences (Figure 8).
func Replay(tr *trace.Trace, model Model, cfg Config, lat mem.Latency) Result {
	return ReplayObserved(tr, model, cfg, lat, ReplayObs{})
}

// ReplayObserved is Replay with observability instruments attached. The
// instruments are pure outputs: ReplayObserved(tr, m, cfg, lat, ro) returns
// exactly what Replay(tr, m, cfg, lat) returns.
func ReplayObserved(tr *trace.Trace, model Model, cfg Config, lat mem.Latency, ro ReplayObs) Result {
	dfence := markDurabilityFences(tr)
	r := newReplayer(model, cfg, lat, ro)
	for i := range tr.Events {
		r.step(tr.Events[i], dfence[i])
	}
	return r.result()
}

// replayer is the incremental core of the timing replay: one event at a
// time via step, with the dfence decision supplied by the caller (from
// markDurabilityFences on a materialized trace, or from the streaming
// lookahead in ReplaySource). ReplayObserved is exactly a step loop, so
// both paths share every modelling decision.
type replayer struct {
	model Model
	cfg   Config
	lat   mem.Latency
	ro    ReplayObs
	res   Result

	// origPending mirrors pmem.Device.PendingFlushes exactly (distinct
	// CLWB'd lines since the last fence): it reconstructs the cost the
	// original execution charged each fence, independent of the model
	// being replayed. modelPending is the x86 models' own drain set and
	// additionally includes NT-store lines waiting in the WCB.
	origPending  map[int32]map[mem.Line]bool
	modelPending map[int32]map[mem.Line]bool
	// pbs holds the per-thread HOPS persist buffers.
	pbs map[int32]*pbState

	persistLat    mem.Cycles
	drainInterval mem.Cycles
	ooo           mem.Cycles
	drainAt       int

	now      mem.Cycles
	prevTime mem.Time
	started  bool
}

func newReplayer(model Model, cfg Config, lat mem.Latency, ro ReplayObs) *replayer {
	r := &replayer{
		model: model, cfg: cfg, lat: lat, ro: ro,
		res:          Result{Model: model},
		origPending:  make(map[int32]map[mem.Line]bool),
		modelPending: make(map[int32]map[mem.Line]bool),
		pbs:          make(map[int32]*pbState),
	}
	r.persistLat = lat.PMCycles
	if model == X86PWQ || model == HOPSPWQ {
		r.persistLat = lat.MCQueue
	}
	pipe := cfg.MCPipeline
	if pipe == 0 {
		pipe = 4
	}
	r.drainInterval = mem.Cycles(int(r.persistLat) / (cfg.MCs * pipe))
	if r.drainInterval == 0 {
		r.drainInterval = 1
	}

	// DrainAt is the occupancy at which the drain engine force-closes
	// (epoch-splits) the OPEN epoch to start background flushing early;
	// closed epochs always drain in the background from the fence that
	// closed them. Clamp to [1, PBEntries]: 1 = fully eager (every store
	// is handed to the drain engine immediately, the pre-sweep behaviour),
	// PBEntries = drain only on fences or a full buffer.
	r.drainAt = cfg.DrainAt
	if r.drainAt <= 0 {
		r.drainAt = 1
	}
	if r.drainAt > cfg.PBEntries {
		r.drainAt = cfg.PBEntries
	}

	r.ooo = mem.Cycles(cfg.OOOWidth)
	if r.ooo == 0 {
		r.ooo = 4
	}
	return r
}

func getSet(m map[int32]map[mem.Line]bool, tid int32) map[mem.Line]bool {
	p := m[tid]
	if p == nil {
		p = make(map[mem.Line]bool)
		m[tid] = p
	}
	return p
}

func (r *replayer) getPB(tid int32) *pbState {
	pb := r.pbs[tid]
	if pb == nil {
		pb = &pbState{}
		r.pbs[tid] = pb
	}
	return pb
}

// schedule hands every open-epoch entry to the background drain
// engine: the first completes a full persist latency from now, the
// rest stream behind it at the MC drain interval.
func (r *replayer) schedule(pb *pbState, now mem.Cycles) {
	for ; pb.open > 0; pb.open-- {
		completion := now + r.persistLat
		if n := len(pb.done); n > 0 && pb.done[n-1]+r.drainInterval > completion {
			completion = pb.done[n-1] + r.drainInterval
		}
		pb.done = append(pb.done, completion)
	}
}

// retire drops entries whose background drain has completed.
func (r *replayer) retire(pb *pbState, now mem.Cycles) {
	for len(pb.done) > 0 && pb.done[0] <= now {
		pb.done = pb.done[1:]
	}
}

// step replays one event. dfence tells a KFence whether it is a
// durability fence under the HOPS models; it is ignored for every other
// event kind.
func (r *replayer) step(e trace.Event, dfence bool) {
	if !r.started {
		r.prevTime = e.Time
		r.started = true
	}
	// Recover pure compute: the recorded gap minus the cost the
	// original execution charged for this event.
	gap := r.lat.ToCycles(e.Time - r.prevTime)
	orig := originalCharge(e, r.lat, getSet(r.origPending, e.TID))
	if gap > orig {
		// Compute executes on the OOO core; fences (substituted below
		// per model) serialize.
		r.now += (gap - orig) / r.ooo
	}
	r.prevTime = e.Time

	// Maintain the original execution's pending-flush bookkeeping
	// regardless of model.
	switch e.Kind {
	case trace.KFlush:
		for _, l := range mem.Lines(e.Addr, int(e.Size)) {
			getSet(r.origPending, e.TID)[l] = true
		}
	case trace.KFence:
		delete(r.origPending, e.TID)
	}

	switch e.Kind {
	case trace.KStore, trace.KStoreNT:
		r.now += r.lat.StoreCycles
		if e.Kind == trace.KStoreNT {
			r.now++
		}
		switch r.model {
		case X86NVM, X86PWQ:
			if e.Kind == trace.KStoreNT {
				for _, l := range mem.Lines(e.Addr, int(e.Size)) {
					getSet(r.modelPending, e.TID)[l] = true
				}
			}
		case HOPSNVM, HOPSPWQ:
			pb := r.getPB(e.TID)
			for range mem.Lines(e.Addr, int(e.Size)) {
				r.retire(pb, r.now)
				if len(pb.done)+pb.open >= r.cfg.PBEntries {
					// Full PB: force-close the open epoch and stall
					// until the head entry drains.
					r.schedule(pb, r.now)
					stall := pb.done[0] - r.now
					r.now += stall
					r.res.StallCycles += stall
					r.ro.DrainStall.Observe(uint64(stall))
					pb.done = pb.done[1:]
				}
				pb.open++
				if pb.open >= r.drainAt {
					// Occupancy hit the launch threshold: epoch-split
					// the open epoch and drain it in the background.
					r.schedule(pb, r.now)
				}
				r.ro.Occupancy.Observe(uint64(len(pb.done) + pb.open))
			}
		case Ideal:
			// No persistence bookkeeping at all.
		}

	case trace.KLoad:
		r.now += r.lat.L1Cycles

	case trace.KFlush:
		switch r.model {
		case X86NVM, X86PWQ:
			r.now += 2 // clwb issue cost
			for _, l := range mem.Lines(e.Addr, int(e.Size)) {
				getSet(r.modelPending, e.TID)[l] = true
			}
		default:
			// HOPS and IDEAL need no flush instructions: the
			// instruction disappears from the stream.
		}

	case trace.KFence:
		r.res.Fences++
		switch r.model {
		case X86NVM, X86PWQ:
			n := len(getSet(r.modelPending, e.TID))
			r.ro.Occupancy.Observe(uint64(n))
			stall := x86FenceCost(n, r.persistLat, r.drainInterval)
			r.now += stall
			r.res.StallCycles += stall
			r.ro.DrainStall.Observe(uint64(stall))
			delete(r.modelPending, e.TID)
		case HOPSNVM, HOPSPWQ:
			r.now++ // TS register bump
			pb := r.getPB(e.TID)
			r.retire(pb, r.now)
			// The fence closes the epoch; its entries may now drain,
			// so hand them to the background engine (BEP rule: epochs
			// drain when closed, an ofence never stalls for them).
			r.schedule(pb, r.now)
			if dfence {
				r.res.DFences++
				if len(pb.done) > 0 {
					stall := pb.done[len(pb.done)-1] - r.now
					r.now += stall
					r.res.StallCycles += stall
					r.ro.DrainStall.Observe(uint64(stall))
					pb.done = pb.done[:0]
				}
			}
		case Ideal:
			r.now++
		}

	case trace.KVLoad, trace.KVStore:
		r.now++
	}
}

func (r *replayer) result() Result {
	r.res.Cycles = r.now
	return r.res
}

// originalCharge reproduces the cycle cost persist.Thread charged for an
// event when the trace was recorded, so Replay can subtract it from the
// inter-event gap and keep only genuine compute. pending is the thread's
// distinct-flushed-lines set maintained in event order — identical to the
// device state the original fence saw.
func originalCharge(e trace.Event, lat mem.Latency, pending map[mem.Line]bool) mem.Cycles {
	switch e.Kind {
	case trace.KStore:
		return lat.StoreCycles
	case trace.KStoreNT:
		return lat.StoreCycles + 1
	case trace.KLoad:
		return lat.L1Cycles
	case trace.KFlush:
		return 2
	case trace.KFence:
		cost := lat.PMCycles
		if n := len(pending); n > 1 {
			cost += mem.Cycles(n-1) * (lat.PMCycles / 8)
		}
		return cost
	default:
		return 0
	}
}

// x86FenceCost models an sfence draining n outstanding lines: the first
// line pays the full persist latency, the rest stream behind it across
// the MCs.
func x86FenceCost(n int, persistLat, drainInterval mem.Cycles) mem.Cycles {
	if n == 0 {
		return 2 // bare sfence
	}
	return persistLat + mem.Cycles(n-1)*drainInterval
}

// markDurabilityFences returns, per event index, whether a KFence should
// be treated as a dfence: the last fence of each transaction. Fences
// outside transactions (asynchronous log truncation, root updates) order
// writes but need no synchronous durability — they map to ofences, with
// the next dfence providing the durability point, exactly the split
// Figure 8 advocates.
func markDurabilityFences(tr *trace.Trace) map[int]bool {
	out := make(map[int]bool)
	lastFence := make(map[int32]int)
	for i, e := range tr.Events {
		switch e.Kind {
		case trace.KTxEnd:
			if j, ok := lastFence[e.TID]; ok {
				out[j] = true // commit fence: durability required
			}
		case trace.KFence:
			lastFence[e.TID] = i
		}
	}
	return out
}

// Normalized replays tr under every model and returns runtimes normalized
// to the x86-64 (NVM) baseline — the exact presentation of Figure 10.
// When instruments is non-nil, instruments(m) supplies the ReplayObs for
// each model's replay; instruments never change the returned ratios.
func Normalized(tr *trace.Trace, cfg Config, lat mem.Latency, instruments func(Model) ReplayObs) map[Model]float64 {
	obsFor := func(m Model) ReplayObs {
		if instruments == nil {
			return ReplayObs{}
		}
		return instruments(m)
	}
	base := ReplayObserved(tr, X86NVM, cfg, lat, obsFor(X86NVM))
	out := make(map[Model]float64, len(Models))
	out[X86NVM] = 1.0
	for _, m := range Models {
		if m == X86NVM {
			continue
		}
		r := ReplayObserved(tr, m, cfg, lat, obsFor(m))
		out[m] = float64(r.Cycles) / float64(base.Cycles)
	}
	return out
}
