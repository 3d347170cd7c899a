package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	damaris "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

// runtimeSpec is one runtime-face workload: the cluster shape, the
// per-client output, the episode length and the store stack.
type runtimeSpec struct {
	name       string
	job        string
	nodes      int
	clients    int // simulation cores per node (plus one dedicated core)
	fanout     int
	roots      int
	vars       int
	varBytes   int
	iterations int  // iterations per episode
	sdf        bool // production stack (dedup over adaptive codec over SDF) vs memory
	buffer     int  // per-node shared-memory segment bytes
}

// window bounds the closed loop: iteration i starts only after
// WaitIteration(i-window) returns, so at most window iterations are in
// flight.
const window = 5

var ckptStack = runtimeSpec{
	name: "ckpt-stack", job: "ckpt", nodes: 8, clients: 2, fanout: 2, roots: 2,
	vars: 4, varBytes: 32 << 10, iterations: 8, sdf: true, buffer: 4 << 20,
}

var faninSmall = runtimeSpec{
	name: "fanin-small", job: "fanin", nodes: 32, clients: 2, fanout: 2, roots: 4,
	vars: 16, varBytes: 1 << 10, iterations: 100, buffer: 1 << 20,
}

func (s *runtimeSpec) varNames() []string {
	names := make([]string, s.vars)
	for v := range names {
		names[v] = fmt.Sprintf("v%02d", v)
	}
	return names
}

// configXML is the per-node Damaris configuration: vars float64
// variables of varBytes each.
func (s *runtimeSpec) configXML() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<simulation name=%q><architecture><dedicated cores="1"/><buffer size="%d"/></architecture><data>`,
		s.job, s.buffer)
	fmt.Fprintf(&b, `<parameter name="n" value="%d"/><layout name="field" type="float64" dimensions="n"/>`, s.varBytes/8)
	for _, n := range s.varNames() {
		fmt.Fprintf(&b, `<variable name=%q layout="field"/>`, n)
	}
	b.WriteString(`</data></simulation>`)
	return b.String()
}

func (s *runtimeSpec) userBytesPerIter() int64 {
	return int64(s.nodes * s.clients * s.vars * s.varBytes)
}

// openStack builds the store stack over dir (the SDF directory; unused
// for the memory store) and returns its outermost layer. Traced stacks
// wrap every layer boundary.
func (s *runtimeSpec) openStack(dir string, tr *tracer) (storage.Backend, error) {
	wrap := func(layer string, b storage.Backend, outer bool) storage.Backend {
		if tr == nil {
			return b
		}
		return tr.wrap(layer, b, outer)
	}
	if !s.sdf {
		return wrap("memory", storage.NewMemory(nil, 1, 1e9), true), nil
	}
	sdf, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		return nil, err
	}
	comp := storage.NewCompressing(wrap("sdf", sdf, false),
		storage.CompressionOptions{Codec: storage.AdaptiveCodec})
	dedup := chunk.New(wrap("compress", comp, false), chunk.Options{})
	return wrap("chunk", dedup, true), nil
}

// episode is what one set-up, write, restore cycle measured.
type episode struct {
	traced bool

	setup, write, scan, replay time.Duration
	lat                        []time.Duration // per (client, iteration)

	userBytes, verifiedBytes int64
	attempted, failed        int64
	skipped                  int64
	problems                 []string

	stats  cluster.Stats
	broker storage.BrokerStats
	acc    storage.Accounting
	layers map[string]total // traced episodes: span totals of this episode
	arrive []time.Duration  // traced episodes: last EndIteration → root hook

	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
}

// runEpisode sets up a fresh store and cluster, drives the closed loop,
// restores every iteration through a fresh store handle and verifies it.
// The SDF store stays in dir for the caller to inspect or remove.
func runEpisode(s *runtimeSpec, seed uint64, dir string, tr *tracer) (*episode, error) {
	ep := &episode{traced: tr != nil}
	var before map[string]total
	if tr != nil {
		before = tr.snapshot()
	}

	// Start every episode from a collected heap, so garbage left by the
	// previous one neither lands in this episode's timings nor moves its
	// memory peak.
	runtime.GC()
	t0 := time.Now()
	if s.sdf {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	store, err := s.openStack(dir, tr)
	if err != nil {
		return nil, err
	}
	broker := storage.NewShardedBroker(storage.BrokerOptions{
		Policy: storage.PolicyPerTarget, Targets: s.roots}, s.roots)
	meta, err := damaris.ParseConfigString(s.configXML())
	if err != nil {
		return nil, err
	}
	lastEnd := make([]time.Time, s.iterations)
	var hooks []cluster.Hook
	var arriveMu sync.Mutex
	type arrival struct {
		it int
		at time.Time
	}
	var arrivals []arrival
	cbroker := broker
	if tr != nil {
		cbroker = timedBroker{TokenBroker: broker, tr: tr}
		hooks = []cluster.Hook{cluster.HookFunc{HookName: "perfbench-arrival", Fn: func(it int, _ *cluster.Batch) error {
			now := time.Now()
			arriveMu.Lock()
			arrivals = append(arrivals, arrival{it, now})
			arriveMu.Unlock()
			return nil
		}}}
	}
	c, err := cluster.New(cluster.Config{
		Platform: topology.Platform{Name: s.name, Nodes: s.nodes, CoresPerNode: s.clients + 1},
		Meta:     meta,
		Fanout:   s.fanout,
		Roots:    s.roots,
		Store:    store,
		Broker:   cbroker,
		JobName:  s.job,
		Hooks:    hooks,
	})
	if err != nil {
		return nil, err
	}
	in := genInputs(s, seed)
	ep.setup = time.Since(t0)

	// Closed loop from this goroutine.
	clients := s.nodes * s.clients
	cur := make([][]byte, len(in.base))
	for i, b := range in.base {
		cur[i] = append([]byte(nil), b...)
	}
	hashes := make([]uint64, s.iterations*clients*s.vars)
	handles := make([]*core.Client, clients)
	for n := 0; n < s.nodes; n++ {
		for src := 0; src < s.clients; src++ {
			handles[n*s.clients+src] = c.Client(n, src)
		}
	}
	ep.lat = make([]time.Duration, 0, s.iterations*clients)
	var ms0 runtime.MemStats
	if tr == nil {
		runtime.ReadMemStats(&ms0)
	}
	var writeErr error
	start := time.Now()
	for it := 0; it < s.iterations && writeErr == nil; it++ {
		if it >= window {
			c.WaitIteration(it - window)
		}
		for ci, cl := range handles {
			for v := 0; v < s.vars; v++ {
				slot := ci*s.vars + v
				if it > 0 {
					p := in.patches[it-1][slot]
					copy(cur[slot][p.off:], p.data)
				}
				hashes[(it*clients+ci)*s.vars+v] = blockHash(cur[slot])
			}
			t := time.Now()
			for v, name := range in.names {
				var h handle
				if tr != nil {
					h = tr.start("core.write", it, false)
				}
				err := cl.Write(name, it, cur[ci*s.vars+v])
				if tr != nil {
					tr.finish(h, s.varBytes)
				}
				if errors.Is(err, core.ErrSkipped) {
					ep.skipped++
					continue
				}
				if err != nil {
					writeErr = err
				}
			}
			var h handle
			if tr != nil {
				h = tr.start("core.end_iteration", it, false)
			}
			cl.EndIteration(it)
			if tr != nil {
				tr.finish(h, 0)
			}
			ep.lat = append(ep.lat, time.Since(t))
		}
		lastEnd[it] = time.Now()
	}
	if writeErr != nil {
		_ = c.Shutdown() // the write error is the one to report
		return nil, fmt.Errorf("write: %w", writeErr)
	}
	c.WaitIteration(s.iterations - 1)
	ep.write = time.Since(start)
	if tr == nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		ep.mallocs = ms1.Mallocs - ms0.Mallocs
		ep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		ep.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
		ep.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	}
	if err := c.Shutdown(); err != nil {
		ep.problems = append(ep.problems, err.Error())
	}
	ep.stats = c.Stats()
	ep.broker = broker.Stats()
	ep.acc = store.Accounting()
	ep.userBytes = int64(s.iterations) * s.userBytesPerIter()
	ep.attempted = int64(s.iterations * clients * s.vars)

	// Restore through a fresh handle on the same directory (the memory
	// store has no directory: it restores from the objects it holds).
	rstore := store
	if s.sdf {
		if rstore, err = s.openStack(dir, tr); err != nil {
			return nil, err
		}
	}
	varIdx := make(map[string]int, s.vars)
	for v, n := range in.names {
		varIdx[n] = v
	}
	seen := make([]bool, len(hashes))
	var verified int64
	t1 := time.Now()
	r, err := cluster.Restore(rstore, s.job)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	ep.scan = time.Since(t1)
	err = r.Replay(func(it int, b *cluster.Batch) error {
		for _, blk := range b.Blocks {
			v, ok := varIdx[blk.Variable]
			if !ok || it < 0 || it >= s.iterations || blk.Node >= s.nodes || blk.Source >= s.clients {
				ep.failed++ // a block nobody wrote
				continue
			}
			i := (it*clients+blk.Node*s.clients+blk.Source)*s.vars + v
			if seen[i] {
				ep.failed++ // a second copy
				continue
			}
			if blockHash(blk.Data) != hashes[i] {
				continue // mismatched: counted below as unverified
			}
			seen[i] = true
			verified++
			ep.verifiedBytes += int64(len(blk.Data))
		}
		return nil
	})
	ep.replay = time.Since(t1) - ep.scan
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, p := range r.Problems {
		ep.problems = append(ep.problems, p.Error())
	}
	// Skipped, lost, missing and mismatched blocks all end up unverified.
	ep.failed += ep.attempted - verified

	if tr != nil {
		ep.layers = diff(tr.snapshot(), before)
		for _, a := range arrivals {
			if a.it >= 0 && a.it < len(lastEnd) {
				ep.arrive = append(ep.arrive, a.at.Sub(lastEnd[a.it]))
				tr.record("cluster.root_arrival", a.it, lastEnd[a.it], a.at)
			}
		}
	}
	return ep, nil
}

// runRuntime runs episodes until the time budget is spent. The first
// episode warms up (caches, heap, lazy initialization): it is checked
// like every other but not timed. Traced runs then alternate traced and
// untraced episodes: the untraced ones give the overhead baseline, the
// Go runtime counters and the write tail, the traced ones the per-layer
// numbers.
func runRuntime(s *runtimeSpec, o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := &report{tracer: tr}
	var untraced, traced []*episode
	deadline := time.Now().Add(o.seconds)
	for k := 0; ; k++ {
		var t *tracer
		if tr != nil && k%2 == 1 {
			t = tr
		}
		dir := filepath.Join(o.scratch, fmt.Sprintf("%s-ep%03d", s.name, k))
		ep, err := runEpisode(s, o.seed, dir, t)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", s.name, k, err)
		}
		rep.attempted += ep.attempted
		rep.failed += ep.failed
		rep.problems = append(rep.problems, ep.problems...)
		fmt.Fprintf(os.Stderr, "episode %d traced=%v setup=%.4fs write=%.3fs %.2fMB/s restore=%.3fs\n",
			k, ep.traced, ep.setup.Seconds(), ep.write.Seconds(),
			float64(ep.userBytes)/ep.write.Seconds()/1e6, (ep.scan + ep.replay).Seconds())
		switch {
		case k == 0:
		case ep.traced:
			traced = append(traced, ep)
		default:
			untraced = append(untraced, ep)
		}
		if k >= 2 && time.Now().After(deadline) && samples(untraced) >= minWriteSamples {
			break
		}
	}
	rep.summary = append(rep.summary, fmt.Sprintf("%s: 1 warm-up + %d untraced + %d traced episodes of %d iterations, %d write samples",
		s.name, len(untraced), len(traced), s.iterations, samples(untraced)))
	if o.trace {
		rep.metrics = s.layerMetrics(untraced, traced)
		rep.summary = append(rep.summary, largestSelf(rep.metrics))
	} else {
		rep.metrics = s.endToEnd(untraced)
		rep.metrics["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	return rep, nil
}

// minWriteSamples is the fewest (client, iteration) write samples an
// untraced run reports, so the write percentiles rest on enough data.
const minWriteSamples = 1000

func samples(eps []*episode) int {
	n := 0
	for _, ep := range eps {
		n += len(ep.lat)
	}
	return n
}

// endToEnd computes the end-to-end metrics (all but ok_frac, which
// counts every episode) from the timed untraced episodes.
func (s *runtimeSpec) endToEnd(eps []*episode) map[string]float64 {
	var setup, tput, msIter, restore, stored []float64
	var lat []float64
	for _, ep := range eps {
		setup = append(setup, ep.setup.Seconds())
		tput = append(tput, float64(ep.userBytes)/ep.write.Seconds()/1e6)
		msIter = append(msIter, ep.write.Seconds()*1e3/float64(s.iterations))
		restore = append(restore, float64(ep.verifiedBytes)/(ep.scan+ep.replay).Seconds()/1e6)
		stored = append(stored, float64(ep.acc.ObjectBytes)/float64(ep.userBytes))
		for _, d := range ep.lat {
			lat = append(lat, float64(d)/1e3)
		}
	}
	return map[string]float64{
		"setup_s":                    median(setup),
		"throughput_MBps":            median(tput),
		"ms_per_iter":                median(msIter),
		"write_p50_us":               quantile(lat, 0.50),
		"restore_MBps":               median(restore),
		"stored_bytes_per_user_byte": median(stored),
		"peak_rss_MB":                peakRSSMB(),
	}
}

// layerMetrics computes the per-layer metrics: medians over traced
// episodes for the layer counters and times, untraced episodes for the
// Go runtime counters, the write tail and the tracing overhead.
func (s *runtimeSpec) layerMetrics(untraced, traced []*episode) map[string]float64 {
	m := zeroLayerMetrics()
	per := func(name string, f func(ep *episode) float64) {
		var xs []float64
		for _, ep := range traced {
			xs = append(xs, f(ep))
		}
		m[name] = median(xs)
	}
	sec := func(ep *episode, name string) float64 { return seconds(ep.layers, name) }
	calls := func(ep *episode, name string) float64 { return float64(ep.layers[name].calls) }
	per("core.write_calls", func(ep *episode) float64 { return calls(ep, "core.write") })
	per("core.write_s", func(ep *episode) float64 { return sec(ep, "core.write") })
	per("core.end_iteration_s", func(ep *episode) float64 { return sec(ep, "core.end_iteration") })
	per("core.skipped_writes", func(ep *episode) float64 { return float64(ep.skipped) })
	per("cluster.root_arrival_p50_ms", func(ep *episode) float64 {
		var xs []float64
		for _, d := range ep.arrive {
			xs = append(xs, float64(d)/1e6)
		}
		return median(xs)
	})
	per("cluster.batches_forwarded", func(ep *episode) float64 { return float64(ep.stats.BatchesForwarded) })
	per("cluster.bytes_forwarded", func(ep *episode) float64 { return float64(ep.stats.BytesForwarded) })
	per("cluster.objects_written", func(ep *episode) float64 { return float64(ep.stats.ObjectsWritten) })
	per("cluster.blocks_lost", func(ep *episode) float64 { return float64(ep.stats.BlocksLost) })
	per("cluster.manifest_put_calls", func(ep *episode) float64 { return calls(ep, "cluster.manifest_put") })
	per("cluster.manifest_put_s", func(ep *episode) float64 { return sec(ep, "cluster.manifest_put") })
	per("cluster.restore_scan_s", func(ep *episode) float64 { return ep.scan.Seconds() })
	per("cluster.restore_replay_s", func(ep *episode) float64 { return ep.replay.Seconds() })
	per("storage.broker_grants", func(ep *episode) float64 { return float64(ep.broker.Grants) })
	per("storage.broker_wait_s", func(ep *episode) float64 { return ep.broker.WaitTime })
	if s.sdf {
		per("chunk.put_calls", func(ep *episode) float64 { return calls(ep, "chunk.put") })
		per("chunk.put_self_s", func(ep *episode) float64 { return sec(ep, "chunk.put") - sec(ep, "compress.put") })
		per("chunk.get_self_s", func(ep *episode) float64 { return sec(ep, "chunk.get") - sec(ep, "compress.get") })
		per("chunk.chunks_stored", func(ep *episode) float64 { return float64(ep.acc.ChunksStored) })
		per("chunk.chunks_deduped", func(ep *episode) float64 { return float64(ep.acc.ChunksDeduped) })
		per("chunk.dedup_byte_frac", func(ep *episode) float64 {
			return frac(ep.acc.ChunkBytesDeduped, ep.acc.ChunkBytesDeduped+ep.acc.ChunkBytesStored)
		})
		per("compress.put_calls", func(ep *episode) float64 { return calls(ep, "compress.put") })
		per("compress.put_self_s", func(ep *episode) float64 { return sec(ep, "compress.put") - sec(ep, "sdf.put") })
		per("compress.get_self_s", func(ep *episode) float64 { return sec(ep, "compress.get") - sec(ep, "sdf.get") })
		per("compress.ratio", func(ep *episode) float64 {
			return frac(ep.acc.ObjectRawBytes, ep.acc.ObjectEncodedBytes)
		})
		for _, codec := range codecNames() {
			per("compress.objects."+codec, func(ep *episode) float64 { return float64(ep.acc.PerCodec[codec].Objects) })
		}
		per("sdf.put_calls", func(ep *episode) float64 { return calls(ep, "sdf.put") })
		per("sdf.put_bytes", func(ep *episode) float64 { return float64(ep.layers["sdf.put"].bytes) })
		per("sdf.put_s", func(ep *episode) float64 { return sec(ep, "sdf.put") })
		per("sdf.get_s", func(ep *episode) float64 { return sec(ep, "sdf.get") })
	} else {
		per("memory.put_s", func(ep *episode) float64 { return sec(ep, "memory.put") })
		per("memory.get_s", func(ep *episode) float64 { return sec(ep, "memory.get") })
	}

	var alloc, mallocs, gcs, pause, lat, tputU, tputT []float64
	for _, ep := range untraced {
		alloc = append(alloc, float64(ep.allocBytes)/float64(ep.userBytes))
		mallocs = append(mallocs, float64(ep.mallocs)/float64(s.iterations))
		gcs = append(gcs, float64(ep.gcCycles))
		pause = append(pause, ep.gcPause.Seconds())
		tputU = append(tputU, float64(ep.userBytes)/ep.write.Seconds())
		for _, d := range ep.lat {
			lat = append(lat, float64(d)/1e3)
		}
	}
	for _, ep := range traced {
		tputT = append(tputT, float64(ep.userBytes)/ep.write.Seconds())
	}
	m["go.alloc_bytes_per_user_byte"] = median(alloc)
	m["go.mallocs_per_iter"] = median(mallocs)
	m["go.gc_cycles"] = median(gcs)
	m["go.gc_pause_s"] = median(pause)
	m["bench.write_p99_us"] = quantile(lat, 0.99)
	m["bench.write_samples"] = float64(len(lat))
	m["bench.trace_overhead_frac"] = median(tputU)/median(tputT) - 1
	return m
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
