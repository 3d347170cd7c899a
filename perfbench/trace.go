package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// maxSpans bounds the in-memory span log; spans past it are counted in
// the dump's "dropped" field but still feed the per-layer totals.
const maxSpans = 100_000

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: no enclosing span on this goroutine
	Iter   int32  `json:"iter"`   // -1: not tied to an iteration
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// total accumulates every finished span of one name.
type total struct {
	calls int64
	ns    int64
	bytes int64
}

// openSpan is one entry of a goroutine's stack of unfinished spans.
type openSpan struct {
	id   int32
	iter int32
}

// tracer keeps spans in memory for the traced run and sums them per
// name; the dump is written once, when the benchmark ends. Nested spans
// (the store layers, the broker) find their parent through a
// per-goroutine stack, because one root's store call chain runs on one
// aggregator goroutine while other roots run theirs concurrently.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	nextID  int32
	spans   []span
	dropped int
	stacks  map[uint64][]openSpan
	totals  map[string]*total
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stacks: map[uint64][]openSpan{}, totals: map[string]*total{}}
}

// handle is a started span.
type handle struct {
	name   string
	id     int32
	parent int32
	iter   int32
	gid    uint64
	nested bool
	start  int64
}

// start opens a span. nested spans join the calling goroutine's stack
// (and inherit the parent's iteration when iter < 0); flat ones, the
// closed-loop client calls on the writing goroutine, skip that lookup.
func (t *tracer) start(name string, iter int, nested bool) handle {
	h := handle{name: name, parent: -1, iter: int32(iter), nested: nested}
	if nested {
		h.gid = goid()
	}
	t.mu.Lock()
	h.id = t.nextID
	t.nextID++
	if nested {
		st := t.stacks[h.gid]
		if n := len(st); n > 0 {
			h.parent = st[n-1].id
			if h.iter < 0 {
				h.iter = st[n-1].iter
			}
		}
		t.stacks[h.gid] = append(st, openSpan{id: h.id, iter: h.iter})
	}
	t.mu.Unlock()
	h.start = int64(time.Since(t.t0))
	return h
}

// finish closes a span, crediting bytes to its name's total.
func (t *tracer) finish(h handle, bytes int) { t.finishAt(h, time.Now(), bytes) }

// record adds an already-measured interval as a flat span (the root
// arrival latency, which starts on one goroutine and ends on another).
func (t *tracer) record(name string, iter int, start, end time.Time) {
	h := handle{name: name, parent: -1, iter: int32(iter), start: int64(start.Sub(t.t0))}
	t.mu.Lock()
	h.id = t.nextID
	t.nextID++
	t.mu.Unlock()
	t.finishAt(h, end, 0)
}

func (t *tracer) finishAt(h handle, end time.Time, bytes int) {
	e := int64(end.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if h.nested {
		st := t.stacks[h.gid]
		if n := len(st); n > 0 {
			st = st[:n-1]
		}
		if len(st) == 0 {
			delete(t.stacks, h.gid)
		} else {
			t.stacks[h.gid] = st
		}
	}
	tot := t.totals[h.name]
	if tot == nil {
		tot = &total{}
		t.totals[h.name] = tot
	}
	tot.calls++
	tot.ns += e - h.start
	tot.bytes += int64(bytes)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: h.name, ID: h.id, Parent: h.parent,
			Iter: h.iter, Start: h.start, End: e})
	} else {
		t.dropped++
	}
}

// snapshot returns a copy of the per-name totals.
func (t *tracer) snapshot() map[string]total {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]total, len(t.totals))
	for k, v := range t.totals {
		out[k] = *v
	}
	return out
}

// seconds returns the summed duration of one span name in a snapshot.
func seconds(s map[string]total, name string) float64 { return float64(s[name].ns) / 1e9 }

// diff returns the per-name totals accumulated between two snapshots.
func diff(after, before map[string]total) map[string]total {
	out := make(map[string]total, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = total{calls: a.calls - b.calls, ns: a.ns - b.ns, bytes: a.bytes - b.bytes}
	}
	return out
}

// dump writes the span log as JSON.
func (t *tracer) dump(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var b [64]byte
	n := runtime.Stack(b[:], false)
	s := bytes.TrimPrefix(b[:n], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64)
	return id
}

// iterOf extracts the iteration from a cluster object name's
// "-itNNNNNN" part, or -1 (chunk objects carry none and inherit their
// parent span's).
func iterOf(name string) int {
	i := strings.LastIndex(name, "-it")
	if i < 0 {
		return -1
	}
	s := name[i+3:]
	j := 0
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(s[:j])
	if err != nil {
		return -1
	}
	return n
}

// timedBackend times every object-face call into one storage layer.
// It forwards every optional interface the cluster and the outer layers
// probe for (VecStore, ObjectReader, ObjectDeleter, Retainer,
// ObjectChunkInfoer, ObjectCodecInfoer): when the wrapped layer lacks
// one, the forwarder answers exactly as the absent interface would be
// treated by its callers, so wrapping changes no stored byte and no
// manifest field.
type timedBackend struct {
	storage.Backend
	tr    *tracer
	outer bool // outermost layer: manifest puts also get a cluster span
	put   string
	get   string
	list  string
	del   string
}

func (t *tracer) wrap(layer string, inner storage.Backend, outer bool) *timedBackend {
	return &timedBackend{Backend: inner, tr: t, outer: outer,
		put: layer + ".put", get: layer + ".get", list: layer + ".list", del: layer + ".delete"}
}

var (
	_ storage.Backend           = (*timedBackend)(nil)
	_ storage.VecStore          = (*timedBackend)(nil)
	_ storage.ObjectDeleter     = (*timedBackend)(nil)
	_ storage.Retainer          = (*timedBackend)(nil)
	_ storage.ObjectChunkInfoer = (*timedBackend)(nil)
	_ storage.ObjectCodecInfoer = (*timedBackend)(nil)
)

// Put implements storage.ObjectStore.
func (b *timedBackend) Put(name string, data []byte) error {
	var m handle
	manifest := b.outer && cluster.IsManifestName(name)
	if manifest {
		m = b.tr.start("cluster.manifest_put", iterOf(name), true)
	}
	h := b.tr.start(b.put, iterOf(name), true)
	err := b.Backend.Put(name, data)
	b.tr.finish(h, len(data))
	if manifest {
		b.tr.finish(m, len(data))
	}
	return err
}

// PutVec implements storage.VecStore; an inner layer without it gets
// the flattened Put that storage.PutVec would have issued anyway.
func (b *timedBackend) PutVec(name string, segs [][]byte) error {
	h := b.tr.start(b.put, iterOf(name), true)
	err := storage.PutVec(b.Backend, name, segs)
	b.tr.finish(h, storage.SegsLen(segs))
	return err
}

// Get implements storage.ObjectReader.
func (b *timedBackend) Get(name string) ([]byte, error) {
	h := b.tr.start(b.get, iterOf(name), true)
	data, err := b.Backend.Get(name)
	b.tr.finish(h, len(data))
	return data, err
}

// List implements storage.ObjectReader.
func (b *timedBackend) List(prefix string) ([]string, error) {
	h := b.tr.start(b.list, -1, true)
	names, err := b.Backend.List(prefix)
	b.tr.finish(h, 0)
	return names, err
}

// Delete implements storage.ObjectDeleter.
func (b *timedBackend) Delete(name string) error {
	d, ok := b.Backend.(storage.ObjectDeleter)
	if !ok {
		return fmt.Errorf("storage: backend %s cannot delete objects", b.Backend.Name())
	}
	h := b.tr.start(b.del, iterOf(name), true)
	err := d.Delete(name)
	b.tr.finish(h, 0)
	return err
}

// Retain implements storage.Retainer.
func (b *timedBackend) Retain(name string) error {
	r, ok := b.Backend.(storage.Retainer)
	if !ok {
		return fmt.Errorf("storage: backend %s keeps no references", b.Backend.Name())
	}
	return r.Retain(name)
}

// Release implements storage.Retainer.
func (b *timedBackend) Release(name string) error {
	r, ok := b.Backend.(storage.Retainer)
	if !ok {
		return fmt.Errorf("storage: backend %s keeps no references", b.Backend.Name())
	}
	return r.Release(name)
}

// ObjectChunks implements storage.ObjectChunkInfoer.
func (b *timedBackend) ObjectChunks(name string) (storage.ChunkInfo, bool) {
	if ci, ok := b.Backend.(storage.ObjectChunkInfoer); ok {
		return ci.ObjectChunks(name)
	}
	return storage.ChunkInfo{}, false
}

// ObjectCodec implements storage.ObjectCodecInfoer.
func (b *timedBackend) ObjectCodec(name string) (storage.CodecInfo, bool) {
	if ci, ok := b.Backend.(storage.ObjectCodecInfoer); ok {
		return ci.ObjectCodec(name)
	}
	return storage.CodecInfo{}, false
}

// timedBroker times the runtime face of the token broker; the rest of
// the interface is promoted unchanged.
type timedBroker struct {
	storage.TokenBroker
	tr *tracer
}

// Acquire implements storage.TokenBroker. The request's deadline is the
// iteration it writes, which tags the span.
func (b timedBroker) Acquire(req storage.TokenRequest) storage.TokenGrant {
	h := b.tr.start("storage.broker_acquire", int(req.Deadline), true)
	g := b.TokenBroker.Acquire(req)
	b.tr.finish(h, int(req.Bytes))
	return g
}
