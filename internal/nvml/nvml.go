// Package nvml implements an NVML/libpmemobj-style persistent object pool
// with undo-log durable transactions, the second transactional access layer
// of WHISPER (§3.1).
//
// The persistence discipline follows the paper:
//
//   - Before the first in-place modification of a range, the old contents
//     are appended to a per-thread undo log with cacheable stores, flushed
//     and fenced — "undo entries must be ordered before data writes ...
//     they fragment a transaction into a series of alternating epochs".
//   - Data is then updated in place with cacheable stores but NOT flushed;
//     the flushes happen at commit ("N-store and those using NVML
//     sometimes modify data in one epoch and flush it in another").
//   - At commit all modified lines are flushed and fenced, the log state
//     is set to committed (epoch), and each log entry is cleared in its
//     own epoch ("NVML sets and clears its log entries").
//   - Unlike Mnemosyne, NVML must be informed of updates via AddRange
//     unless the object was allocated in the same transaction.
//
// Allocation uses the redo-logged atomic allocator (alloc.Logged), whose
// extra epochs produce the ~1000% write amplification of §5.2.
package nvml

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/whisper-pm/whisper/internal/alloc"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// ErrAborted is returned by Run when the transaction aborts.
var ErrAborted = errors.New("nvml: transaction aborted")

const (
	logBytes    = 1 << 16
	recHeader   = 16
	maxRecData  = 48
	stateOffset = 0
	entryOffset = 64

	logActive    = uint64(1)
	logCommitted = uint64(2)
	logIdle      = uint64(0)
)

// Options tune persistence behaviour for ablation studies.
type Options struct {
	// BatchClear clears undo entries in one epoch at commit instead of one
	// epoch per entry.
	BatchClear bool
}

// Pool is an NVML object pool: a logged allocator, per-thread undo logs and
// persistent root slots.
type Pool struct {
	rt    *persist.Runtime
	opts  Options
	alloc *alloc.Logged
	logs  []mem.Addr
	roots mem.Addr
}

// Open creates a pool with blocksPerClass blocks per allocator size class.
func Open(rt *persist.Runtime, blocksPerClass int, opts Options) *Pool {
	p := &Pool{
		rt:    rt,
		opts:  opts,
		alloc: alloc.NewLogged(rt, blocksPerClass),
		roots: rt.Dev.Map(16 * 8),
	}
	for i := 0; i < rt.Threads(); i++ {
		p.logs = append(p.logs, rt.Dev.Map(logBytes))
	}
	return p
}

// SetRoot durably stores a root pointer in slot (0..15).
func (p *Pool) SetRoot(th *persist.Thread, slot int, a mem.Addr) {
	th.StoreU64(p.roots+mem.Addr(slot*8), uint64(a))
	th.FlushFence(p.roots+mem.Addr(slot*8), 8)
}

// Root reads the root pointer in slot.
func (p *Pool) Root(th *persist.Thread, slot int) mem.Addr {
	return mem.Addr(th.LoadU64(p.roots + mem.Addr(slot*8)))
}

// Allocator exposes the underlying allocator (tests, ablations).
func (p *Pool) Allocator() *alloc.Logged { return p.alloc }

// Tx is an open undo-log transaction.
type Tx struct {
	p       *Pool
	th      *persist.Thread
	logPos  mem.Addr
	logged  []dirtyRange     // ranges captured in the undo log
	dirty   []mem.Span       // in-place writes awaiting commit-time flush
	fresh   map[mem.Addr]int // allocations made in this tx (addr -> size)
	frees   []mem.Addr       // frees deferred to commit
	aborted bool
}

type dirtyRange struct {
	addr mem.Addr
	size int
}

// covered reports whether [a, a+size) is fully contained in the union of
// the ranges.
func covered(ranges []dirtyRange, a mem.Addr, size int) bool {
	// Walk forward from a, extending by any range that covers the current
	// point. Quadratic in len(ranges), which is small (one per AddRange).
	pos := a
	end := a + mem.Addr(size)
	for pos < end {
		advanced := false
		for _, r := range ranges {
			if r.addr <= pos && pos < r.addr+mem.Addr(r.size) {
				next := r.addr + mem.Addr(r.size)
				if next > pos {
					pos = next
					advanced = true
				}
			}
		}
		if !advanced {
			return false
		}
	}
	return true
}

// Run executes body in a durable transaction on th. On error or Abort, all
// in-place writes are rolled back from the undo log and allocations made in
// the transaction are released.
func (p *Pool) Run(th *persist.Thread, body func(*Tx) error) error {
	th.TxBegin()
	defer th.TxEnd()
	tx := &Tx{
		p:      p,
		th:     th,
		logPos: p.logs[th.ID()] + entryOffset,
		fresh:  make(map[mem.Addr]int),
	}
	// Mark the log active: its entries are meaningful until committed.
	th.StoreU64(p.logs[th.ID()]+stateOffset, logActive)
	th.FlushFence(p.logs[th.ID()]+stateOffset, 8)

	err := body(tx)
	if err != nil || tx.aborted {
		tx.rollback()
		if err == nil {
			err = ErrAborted
		}
		return err
	}
	tx.commit()
	return nil
}

// Abort requests rollback.
func (tx *Tx) Abort() { tx.aborted = true }

// AddRange captures the current contents of [a, a+size) in the undo log so
// the range may be modified in place. Ranges in objects allocated within
// this transaction are skipped automatically (NVML semantics), as are
// ranges already captured by this transaction. Each log record costs one
// epoch.
func (tx *Tx) AddRange(a mem.Addr, size int) {
	if tx.freshCovers(a, size) || covered(tx.logged, a, size) {
		return
	}
	tx.logged = append(tx.logged, dirtyRange{a, size})
	for size > 0 {
		n := size
		if n > maxRecData {
			n = maxRecData
		}
		tx.appendUndo(a, n)
		a += mem.Addr(n)
		size -= n
	}
}

func (tx *Tx) freshCovers(a mem.Addr, size int) bool {
	for base, sz := range tx.fresh {
		if a >= base && a+mem.Addr(size) <= base+mem.Addr(sz) {
			return true
		}
	}
	return false
}

func (tx *Tx) appendUndo(a mem.Addr, size int) {
	rec := tx.logPos
	padded := (size + 7) &^ 7
	if rec+mem.Addr(recHeader+padded) > tx.p.logs[tx.th.ID()]+logBytes {
		panic("nvml: undo log overflow (transaction too large)")
	}
	old := tx.th.Load(a, size)
	var buf = make([]byte, recHeader+padded)
	binary.LittleEndian.PutUint64(buf[0:], uint64(a))
	binary.LittleEndian.PutUint64(buf[8:], uint64(size))
	copy(buf[recHeader:], old)
	// Undo records use cacheable stores + flush + fence (§3.1) — and the
	// fence must come before the data writes, fragmenting the transaction.
	tx.th.Store(rec, buf)
	tx.th.Flush(rec, len(buf))
	tx.th.Fence()
	tx.logPos = rec + mem.Addr(len(buf))
}

// Write performs an in-place write. The range must have been captured by
// AddRange or belong to an object allocated in this transaction; otherwise
// Write panics, catching the stray-update bugs the paper fixed in Vacation.
func (tx *Tx) Write(a mem.Addr, data []byte) {
	if !tx.freshCovers(a, len(data)) && !covered(tx.logged, a, len(data)) {
		panic(fmt.Sprintf("nvml: write to %v outside AddRange (stray update)", a))
	}
	tx.th.Store(a, data)
	tx.dirty = append(tx.dirty, mem.Span{Addr: a, Size: len(data)})
}

// Set is the AddRange+Write convenience used by NVML macros.
func (tx *Tx) Set(a mem.Addr, data []byte) {
	tx.AddRange(a, len(data))
	tx.Write(a, data)
}

// SetU64 is Set for a little-endian uint64.
func (tx *Tx) SetU64(a mem.Addr, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	tx.Set(a, buf[:])
}

// Read returns size bytes at a. Undo-log transactions read in place.
func (tx *Tx) Read(a mem.Addr, size int) []byte { return tx.th.Load(a, size) }

// ReadU64 reads a little-endian uint64.
func (tx *Tx) ReadU64(a mem.Addr) uint64 {
	return binary.LittleEndian.Uint64(tx.Read(a, 8))
}

// allocMarker flags an undo record as "allocation made in this
// transaction" rather than an old-data snapshot. Rollback and crash
// recovery free such blocks, making pmemobj_tx_alloc atomic with the
// transaction. freeMarker flags a deferred free (pmemobj_tx_free): it is
// applied at commit, ignored on rollback, and re-applied idempotently when
// recovery finds a committed log whose frees may have been interrupted.
const (
	allocMarker = uint64(1) << 63
	freeMarker  = uint64(1) << 62
)

// Alloc allocates size bytes atomically with the transaction
// (pmemobj_tx_alloc). Writes to the fresh object need no AddRange. The
// allocation is recorded in the undo log so a crash before commit frees it.
func (tx *Tx) Alloc(size int) mem.Addr {
	a := tx.p.alloc.Alloc(tx.th, size)
	if a == 0 {
		panic(fmt.Sprintf("nvml: pool exhausted allocating %d bytes", size))
	}
	tx.fresh[a] = size
	tx.appendAllocRec(a)
	return a
}

func (tx *Tx) appendAllocRec(a mem.Addr) { tx.appendMarkerRec(a, allocMarker) }

func (tx *Tx) appendMarkerRec(a mem.Addr, marker uint64) {
	rec := tx.logPos
	if rec+recHeader > tx.p.logs[tx.th.ID()]+logBytes {
		panic("nvml: undo log overflow (transaction too large)")
	}
	var buf [recHeader]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(a))
	binary.LittleEndian.PutUint64(buf[8:], marker)
	tx.th.Store(rec, buf[:])
	tx.th.Flush(rec, recHeader)
	tx.th.Fence()
	tx.logPos = rec + recHeader
}

// Free releases an object atomically with the transaction
// (pmemobj_tx_free). The release is deferred to commit so an abort keeps
// the object; a persistent free record lets recovery finish the release if
// the machine crashes between commit and the allocator update.
func (tx *Tx) Free(a mem.Addr) {
	tx.appendMarkerRec(a, freeMarker)
	tx.frees = append(tx.frees, a)
}

func (tx *Tx) commit() {
	th := tx.th
	logBase := tx.p.logs[th.ID()]

	// Flush all in-place data writes and fence: the deferred-flush epoch.
	// Coalesce the per-Write dirty ranges to one flush per distinct line —
	// a transaction updating several fields of one node (ctree keys, redis
	// entry header+value) would otherwise flush the shared line once per
	// Write call.
	flushes := mem.Coalesce(tx.dirty)
	for _, s := range flushes {
		th.Flush(s.Addr, s.Size)
	}
	if len(flushes) > 0 {
		th.Fence()
	}

	// Commit point.
	th.StoreU64(logBase+stateOffset, logCommitted)
	th.FlushFence(logBase+stateOffset, 8)

	// Deferred frees (their allocator updates are redo-logged themselves).
	for _, a := range tx.frees {
		tx.p.alloc.Free(th, a)
	}

	tx.clearLog(logBase)
}

func (tx *Tx) rollback() {
	th := tx.th
	logBase := tx.p.logs[th.ID()]
	applyUndo(th, tx.p.alloc, scanUndo(th, logBase))
	tx.clearLog(logBase)
}

type undoRec struct {
	logAddr mem.Addr
	addr    mem.Addr
	size    int
	isAlloc bool
	isFree  bool
}

// payloadLen returns the padded payload bytes following the record header.
func (r undoRec) payloadLen() int {
	if r.isAlloc || r.isFree {
		return 0
	}
	return (r.size + 7) &^ 7
}

// scanUndo reads the undo records of a log until the zero-header sentinel.
func scanUndo(th *persist.Thread, logBase mem.Addr) []undoRec {
	var recs []undoRec
	pos := logBase + entryOffset
	for pos < logBase+logBytes {
		a := mem.Addr(th.LoadU64(pos))
		raw := th.LoadU64(pos + 8)
		if a == 0 && raw == 0 {
			break
		}
		r := undoRec{logAddr: pos, addr: a}
		switch {
		case raw&allocMarker != 0:
			r.isAlloc = true
		case raw&freeMarker != 0:
			r.isFree = true
		default:
			r.size = int(raw)
		}
		recs = append(recs, r)
		pos += mem.Addr(recHeader + r.payloadLen())
	}
	return recs
}

// recoverable trims the records of a log scanned after a crash at the
// first one whose header plus payload would cross the end of the log.
// The default clear zeroes only record headers, so after a mid-epoch
// crash the scan can walk past the live records into stale payload bytes
// and read them as a header with a garbage size word; no record the
// runtime wrote ever crosses the end (appendUndo refuses to).
func recoverable(recs []undoRec, logBase mem.Addr) []undoRec {
	for i, r := range recs {
		if r.logAddr+recHeader+mem.Addr(r.payloadLen()) > logBase+logBytes {
			return recs[:i]
		}
	}
	return recs
}

// applyUndo restores records in reverse order: data snapshots are written
// back, allocations made by the transaction are freed. Deferred-free
// records are skipped: the free never happened.
func applyUndo(th *persist.Thread, a *alloc.Logged, recs []undoRec) {
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		switch {
		case r.isAlloc:
			a.Free(th, r.addr)
		case r.isFree:
			// rollback: the deferred free is simply dropped
		default:
			old := th.Load(r.logAddr+recHeader, r.size)
			th.Store(r.addr, old)
			th.Flush(r.addr, r.size)
			th.Fence()
		}
	}
}

func (tx *Tx) clearLog(logBase mem.Addr) {
	clearUndoLog(tx.th, logBase, tx.p.opts.BatchClear)
}

// clearUndoLog marks the log idle and zeroes its records — one epoch per
// record, or one for the whole log when batch is set.
func clearUndoLog(th *persist.Thread, logBase mem.Addr, batch bool) {
	th.StoreU64(logBase+stateOffset, logIdle)
	th.FlushFence(logBase+stateOffset, 8)
	recs := scanUndo(th, logBase)
	if len(recs) == 0 {
		return
	}
	if batch {
		last := recs[len(recs)-1]
		end := last.logAddr + recHeader + mem.Addr(last.payloadLen())
		n := int(end - (logBase + entryOffset))
		th.Memset(logBase+entryOffset, 0, n)
		th.Flush(logBase+entryOffset, n)
		th.Fence()
		return
	}
	for _, r := range recs {
		th.StoreU64(r.logAddr, 0)
		th.StoreU64(r.logAddr+8, 0)
		th.Flush(r.logAddr, recHeader)
		th.Fence()
	}
}

// Recover processes the per-thread undo logs after a crash: active
// (uncommitted) logs are rolled back (including freeing blocks the
// transaction allocated), committed ones are discarded, and the allocator's
// own redo log is replayed. Must run before the pool is used.
func (p *Pool) Recover(th *persist.Thread) {
	p.alloc.Recover(th)
	for _, logBase := range p.logs {
		switch th.LoadU64(logBase + stateOffset) {
		case logActive:
			applyUndo(th, p.alloc, recoverable(scanUndo(th, logBase), logBase))
		case logCommitted:
			// The transaction committed; finish any deferred frees the
			// crash interrupted. FreeIfAllocated makes the replay
			// idempotent.
			for _, r := range recoverable(scanUndo(th, logBase), logBase) {
				if r.isFree {
					p.alloc.FreeIfAllocated(th, r.addr)
				}
			}
		}
		clearUndoLog(th, logBase, p.opts.BatchClear)
	}
}
