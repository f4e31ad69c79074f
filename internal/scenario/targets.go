package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"github.com/whisper-pm/whisper/internal/apps/ctree"
	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/apps/memcache"
	"github.com/whisper-pm/whisper/internal/apps/redisstore"
	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
)

// op is one generated operation, already resolved to a key and value.
type op struct {
	kind  int // opRead, opWrite, opDel
	key   uint64
	val   uint64
	vlen  int
	think int
}

const (
	opRead = iota
	opWrite
	opDel
)

// target is one tenant's store plus its volatile oracle. Every operation
// completes (durably acknowledges) before apply returns, so the oracle is
// exact at crash boundaries — the engine checks it after every recovery.
type target interface {
	label() string
	apply(o op)
	recoverState()
	check() error
	// crashed tells the target its persistence domain just power-failed
	// (unacknowledged service batches are gone).
	crashed()
	counts() (reads, writes, deletes uint64)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// base carries the bookkeeping all targets share.
type base struct {
	name    string
	reads   uint64
	writes  uint64
	deletes uint64
	failure error
}

func (b *base) label() string { return b.name }
func (b *base) counts() (uint64, uint64, uint64) {
	return b.reads, b.writes, b.deletes
}
func (b *base) fail(format string, args ...any) {
	if b.failure == nil {
		b.failure = fmt.Errorf(format, args...)
	}
}

// ---------------------------------------------------------------------------
// App tenants on the shared runtime: ctree and hashmap (uint64, NVML),
// redis (string, NVML) and memcached (string, Mnemosyne) share one oracle.

// kvStore is the store surface the four key-value apps share.
type kvStore[K, V comparable] interface {
	Insert(tid int, key K, val V) error
	Get(tid int, key K) (V, bool)
	Delete(tid int, key K) (bool, error)
	Recover()
	CheckInvariants(tid int) error
}

type redisKV struct{ *redisstore.Store }

func (r redisKV) Insert(_ int, k, v string) error      { return r.Set(k, v) }
func (r redisKV) Get(_ int, k string) (string, bool)   { return r.Store.Get(k) }
func (r redisKV) Delete(_ int, k string) (bool, error) { return r.Del(k) }
func (r redisKV) CheckInvariants(int) error            { return r.Store.CheckInvariants() }

type memcacheKV struct{ *memcache.Cache }

func (m memcacheKV) Insert(tid int, k, v string) error { return m.Set(tid, k, v) }

// kvTarget is an app tenant: a kvStore checked against an exact map
// oracle. key and val resolve a generated op to the store's types.
type kvTarget[K cmp.Ordered, V comparable] struct {
	base
	kv      kvStore[K, V]
	key     func(op) K
	val     func(op) V
	tid     int
	model   map[K]V
	touched map[K]bool
}

// newAppTarget builds the named app on rt for logical thread tid.
func newAppTarget(name, app string, rt *persist.Runtime, tid int) target {
	switch app {
	case "ctree":
		return newKVTarget(name, ctree.New(rt, nvml.Open(rt, 1<<15, nvml.Options{})), tid, u64Key, u64Val)
	case "hashmap":
		return newKVTarget(name, hashstore.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}), 256), tid, u64Key, u64Val)
	case "redis":
		kv := redisKV{redisstore.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}), 256)}
		return newKVTarget(name, kv, tid, scenarioKey, scenarioVal)
	case "memcached":
		// maxItems far above any scenario keyspace: LRU eviction never
		// fires, so the oracle needs no eviction mirror.
		kv := memcacheKV{memcache.New(rt, mnemosyne.New(rt, 1<<15, mnemosyne.Options{}), 256, 1<<20)}
		return newKVTarget(name, kv, tid, scenarioKey, scenarioVal)
	}
	panic("scenario: not a key-value app: " + app)
}

func newKVTarget[K cmp.Ordered, V comparable](name string, kv kvStore[K, V], tid int, key func(op) K, val func(op) V) *kvTarget[K, V] {
	return &kvTarget[K, V]{
		base:    base{name: name},
		kv:      kv,
		key:     key,
		val:     val,
		tid:     tid,
		model:   make(map[K]V),
		touched: make(map[K]bool),
	}
}

// u64Key and u64Val keep keys and values nonzero: the uint64 stores treat
// 0 as ambiguous.
func u64Key(o op) uint64 { return o.key + 1 }
func u64Val(o op) uint64 { return o.val%1_000_000 + 1 }

func scenarioKey(o op) string { return fmt.Sprintf("k%06d", o.key) }

// scenarioVal builds a deterministic value of exactly vlen bytes.
func scenarioVal(o op) string {
	v := fmt.Sprintf("v%d-%d", o.key, o.val)
	for len(v) < o.vlen {
		v += "."
	}
	return v[:max(1, o.vlen)]
}

// show renders a value for an oracle message: strings quoted, numbers
// bare.
func show(v any) string {
	if s, ok := v.(string); ok {
		return strconv.Quote(s)
	}
	return fmt.Sprint(v)
}

func (t *kvTarget[K, V]) apply(o op) {
	key := t.key(o)
	t.touched[key] = true
	switch o.kind {
	case opWrite:
		t.writes++
		val := t.val(o)
		if err := t.kv.Insert(t.tid, key, val); err != nil {
			t.fail("insert %v: %v", key, err)
			return
		}
		t.model[key] = val
	case opDel:
		t.deletes++
		if _, err := t.kv.Delete(t.tid, key); err != nil {
			t.fail("delete %v: %v", key, err)
			return
		}
		delete(t.model, key)
	default:
		t.reads++
		got, ok := t.kv.Get(t.tid, key)
		want, wok := t.model[key]
		if ok != wok || (ok && got != want) {
			t.fail("get %v: store (%s,%v) diverged from model (%s,%v)", key, show(got), ok, show(want), wok)
		}
	}
}

func (t *kvTarget[K, V]) recoverState() { t.kv.Recover() }
func (t *kvTarget[K, V]) crashed()      {}

func (t *kvTarget[K, V]) check() error {
	if t.failure != nil {
		return t.failure
	}
	if err := t.kv.CheckInvariants(t.tid); err != nil {
		return err
	}
	for _, key := range sortedKeys(t.touched) {
		got, ok := t.kv.Get(t.tid, key)
		want, wok := t.model[key]
		if ok != wok || (ok && got != want) {
			return fmt.Errorf("key %v: recovered (%s,%v), model (%s,%v)", key, show(got), ok, show(want), wok)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// kvservice tenant: a sharded service with its own persistence domains.

type kvPair struct {
	k, v string
	del  bool
}

// svcTarget mirrors the service's group-commit batching: a put or delete
// is only promoted into the committed oracle when its shard's batch
// commits, and a crash throws away whatever was still pending — exactly
// the service's durability contract. Reads see pending writes
// (read-your-batch, with pending deletes reading as misses), so the
// oracle tracks both layers.
type svcTarget struct {
	base
	svc       *kvservice.Service
	batch     int
	committed map[string]string
	pending   [][]kvPair
	touched   map[string]bool
}

func newSvcTarget(name string, t Tenant, reg *obs.Registry) *svcTarget {
	svc := kvservice.New(kvservice.Config{
		Shards:   t.Shards,
		Batch:    t.Batch,
		SegBytes: t.SegBytes,
		Metrics:  reg,
	})
	return &svcTarget{
		base:      base{name: name},
		svc:       svc,
		batch:     t.Batch,
		committed: make(map[string]string),
		pending:   make([][]kvPair, t.Shards),
		touched:   make(map[string]bool),
	}
}

// lookup resolves the newest oracle value: last pending write in the
// key's shard wins over the committed layer.
func (t *svcTarget) lookup(key string) (string, bool) {
	sh := t.svc.ShardFor(key)
	for i := len(t.pending[sh]) - 1; i >= 0; i-- {
		if p := t.pending[sh][i]; p.k == key {
			if p.del {
				return "", false
			}
			return p.v, true
		}
	}
	v, ok := t.committed[key]
	return v, ok
}

func (t *svcTarget) apply(o op) {
	key := scenarioKey(o)
	t.touched[key] = true
	if o.kind == opRead {
		t.reads++
		got, ok := t.svc.Get(key)
		want, wok := t.lookup(key)
		if ok != wok || (ok && string(got) != want) {
			t.fail("get %s: service (%q,%v) diverged from model (%q,%v)", key, got, ok, want, wok)
		}
		return
	}
	sh := t.svc.ShardFor(key)
	if o.kind == opDel {
		t.deletes++
		t.svc.Delete(key)
		t.pending[sh] = append(t.pending[sh], kvPair{k: key, del: true})
	} else {
		t.writes++
		val := scenarioVal(o)
		if err := t.svc.Put(key, []byte(val)); err != nil {
			t.fail("put %s: %v", key, err)
			return
		}
		t.pending[sh] = append(t.pending[sh], kvPair{k: key, v: val})
	}
	if len(t.pending[sh]) >= t.batch {
		t.commitShard(sh)
	}
}

// commitShard promotes shard sh's mirrored batch into the committed layer.
func (t *svcTarget) commitShard(sh int) {
	for _, p := range t.pending[sh] {
		if p.del {
			delete(t.committed, p.k)
		} else {
			t.committed[p.k] = p.v
		}
	}
	t.pending[sh] = t.pending[sh][:0]
}

// pendingShard returns the lowest shard index with a pending batch and
// its size, or (-1, 0) when every batch is empty.
func (t *svcTarget) pendingShard() (int, int) {
	for sh, p := range t.pending {
		if len(p) > 0 {
			return sh, len(p)
		}
	}
	return -1, 0
}

func (t *svcTarget) recoverState() {} // svc.Crash already reopened the shards

func (t *svcTarget) crashed() {
	for sh := range t.pending {
		t.pending[sh] = t.pending[sh][:0]
	}
}

func (t *svcTarget) check() error {
	if t.failure != nil {
		return t.failure
	}
	for _, key := range sortedKeys(t.touched) {
		got, ok := t.svc.Get(key)
		want, wok := t.lookup(key)
		if ok != wok || (ok && string(got) != want) {
			return fmt.Errorf("key %s: recovered (%q,%v), model (%q,%v)", key, got, ok, want, wok)
		}
	}
	return nil
}

// compute charges think cycles to a tenant's clock domain.
func computeOn(th *persist.Thread, c int) {
	if c > 0 {
		th.Compute(mem.Cycles(c))
	}
}
