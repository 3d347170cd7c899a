package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/iostrat"
	"repro/internal/topology"
)

// desApproach is one strategy of the DES workload.
type desApproach struct {
	name     string
	approach iostrat.Approach
	fanout   int
}

var desApproaches = []desApproach{
	{"file-per-process", iostrat.FilePerProcess, 0},
	{"collective", iostrat.Collective, 0},
	{"damaris", iostrat.Damaris, 0},
	{"damaris-tree", iostrat.Damaris, 4},
}

const (
	desNodes       = 768 // topology.Kraken(768): 9216 cores
	desIters       = 2   // simulated output iterations per iostrat.Run
	desRestoreReps = 50  // RestartRead calls per round (each takes a few ms)
)

// Indexes into desApproaches.
const (
	desCollective = 1
	desDamaris    = 2
	desTree       = 3 // also the restore model's topology
)

func desConfig(seed uint64, nodes, iters, fanout int) iostrat.Config {
	return iostrat.Config{
		Platform: topology.Kraken(nodes),
		Workload: iostrat.CM1Workload(iters),
		Seed:     seed,
		Fanout:   fanout,
	}
}

// desOutcome is the part of a result every round must reproduce.
type desOutcome struct {
	total float64
	io    []float64
	tput  float64
}

func (a desOutcome) equal(b desOutcome) bool {
	return a.total == b.total && a.tput == b.tput && slices.Equal(a.io, b.io)
}

// desRound is one set-up plus one pass over the four strategies and the
// restart-read model.
type desRound struct {
	traced       bool
	setup        time.Duration
	wall         []time.Duration // per approach
	restore      time.Duration
	restoreBytes float64
	written      float64 // modeled bytes that reached the file system
	userBytes    float64 // modeled application output
	out          []desOutcome
	restart      iostrat.RestartResult
	errs         []error

	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
}

// runDESRound sets up (configs plus a small warm-up run of every
// strategy, which pays lazy initialization), then times the paper-scale
// runs.
func runDESRound(seed uint64, tr *tracer) *desRound {
	rd := &desRound{traced: tr != nil, wall: make([]time.Duration, len(desApproaches)),
		out: make([]desOutcome, len(desApproaches))}
	runtime.GC() // as for runtime episodes: start from a collected heap
	t0 := time.Now()
	cfgs := make([]iostrat.Config, len(desApproaches))
	for i, a := range desApproaches {
		cfgs[i] = desConfig(seed, desNodes, desIters, a.fanout)
		if _, err := iostrat.Run(a.approach, desConfig(seed, 8, 1, a.fanout)); err != nil {
			rd.errs = append(rd.errs, fmt.Errorf("warm-up %s: %w", a.name, err))
		}
	}
	rd.setup = time.Since(t0)

	var ms0 runtime.MemStats
	if tr == nil {
		runtime.ReadMemStats(&ms0)
	}
	for i, a := range desApproaches {
		var h handle
		if tr != nil {
			h = tr.start("iostrat.run."+a.name, -1, false)
		}
		t := time.Now()
		res, err := iostrat.Run(a.approach, cfgs[i])
		rd.wall[i] = time.Since(t)
		if tr != nil {
			tr.finish(h, int(res.BytesWritten/1e6))
		}
		if err != nil {
			rd.errs = append(rd.errs, fmt.Errorf("%s: %w", a.name, err))
			continue
		}
		rd.out[i] = desOutcome{total: res.TotalTime, io: res.IOTimes, tput: res.Throughput()}
		rd.written += res.BytesWritten
		rd.userBytes += res.Workload.NodeBytes(res.Platform.CoresPerNode) *
			float64(res.Platform.Nodes) * float64(res.Workload.Iterations)
	}
	if tr == nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rd.mallocs = ms1.Mallocs - ms0.Mallocs
		rd.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		rd.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
		rd.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	}

	var h handle
	if tr != nil {
		h = tr.start("iostrat.restart_read", -1, false)
	}
	t := time.Now()
	for k := 0; k < desRestoreReps; k++ {
		rr, err := iostrat.RestartRead(cfgs[desTree])
		if err != nil {
			rd.errs = append(rd.errs, fmt.Errorf("restart read: %w", err))
			break
		}
		rd.restart = rr
		rd.restoreBytes += rr.BytesRead
	}
	rd.restore = time.Since(t)
	if tr != nil {
		tr.finish(h, 0)
	}
	return rd
}

// runDES runs rounds until the time budget is spent and checks every
// round against the first: the model is deterministic for a seed, so
// any difference is a failure, as is damaris not beating collective.
// The first round warms up and is the reference; it is not timed.
func runDES(o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var rounds []*desRound
	deadline := time.Now().Add(o.seconds)
	for k := 0; ; k++ {
		var t *tracer
		if tr != nil && k%2 == 1 {
			t = tr
		}
		rd := runDESRound(o.seed, t)
		rounds = append(rounds, rd)
		fmt.Fprintf(os.Stderr, "round %d traced=%v setup=%.4fs %.2fms/iter restore=%.4fs\n",
			k, rd.traced, rd.setup.Seconds(), rd.msPerIter(), rd.restore.Seconds())
		if time.Now().After(deadline) && k >= 2 {
			break
		}
	}
	rep := &report{tracer: tr}
	ref := rounds[0]
	for k, rd := range rounds {
		rep.attempted += int64(len(desApproaches) + desRestoreReps)
		for _, err := range rd.errs {
			rep.failed++
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: %v", k, err))
		}
		for i, a := range desApproaches {
			if !rd.out[i].equal(ref.out[i]) {
				rep.failed++
				rep.problems = append(rep.problems, fmt.Sprintf("round %d: %s differs from round 0", k, a.name))
			}
		}
		if rd.restart != ref.restart {
			rep.failed++
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: restart read differs from round 0", k))
		}
		if d, c := rd.out[desDamaris].tput, rd.out[desCollective].tput; d <= c {
			rep.failed++
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: damaris %.3g B/s does not beat collective %.3g B/s",
				k, d, c))
		}
	}
	var untraced, traced []*desRound
	for _, rd := range rounds[1:] {
		if rd.traced {
			traced = append(traced, rd)
		} else {
			untraced = append(untraced, rd)
		}
	}
	rep.summary = append(rep.summary, fmt.Sprintf("des-kraken-9216: 1 warm-up + %d untraced + %d traced rounds of %d strategies x %d iterations at %d cores",
		len(untraced), len(traced), len(desApproaches), desIters, topology.Kraken(desNodes).Cores()))
	if o.trace {
		rep.metrics = desLayerMetrics(untraced, traced)
	} else {
		rep.metrics = desEndToEnd(untraced, rep)
	}
	return rep, nil
}

func (rd *desRound) runWall() time.Duration {
	var w time.Duration
	for _, d := range rd.wall {
		w += d
	}
	return w
}

func (rd *desRound) msPerIter() float64 {
	return rd.runWall().Seconds() * 1e3 / float64(len(desApproaches)*desIters)
}

// damarisUS is the wall time to simulate one output iteration of the
// dedicated-core strategy, the DES face's write sample.
func (rd *desRound) damarisUS() float64 { return rd.wall[desDamaris].Seconds() * 1e6 / desIters }

func desEndToEnd(rounds []*desRound, rep *report) map[string]float64 {
	var setup, tput, msIter, write, restore, stored []float64
	for _, rd := range rounds {
		setup = append(setup, rd.setup.Seconds())
		tput = append(tput, rd.written/rd.runWall().Seconds()/1e6)
		msIter = append(msIter, rd.msPerIter())
		write = append(write, rd.damarisUS())
		restore = append(restore, rd.restoreBytes/rd.restore.Seconds()/1e6)
		stored = append(stored, rd.written/rd.userBytes)
	}
	return map[string]float64{
		"setup_s":                    median(setup),
		"throughput_MBps":            median(tput),
		"ms_per_iter":                median(msIter),
		"write_p50_us":               median(write),
		"restore_MBps":               median(restore),
		"stored_bytes_per_user_byte": median(stored),
		"ok_frac":                    1 - float64(rep.failed)/float64(rep.attempted),
		"peak_rss_MB":                peakRSSMB(),
	}
}

func desLayerMetrics(untraced, traced []*desRound) map[string]float64 {
	m := zeroLayerMetrics()
	for i, a := range desApproaches {
		var xs []float64
		for _, rd := range traced {
			xs = append(xs, rd.wall[i].Seconds()*1e3/desIters)
		}
		m["iostrat.wall_ms."+a.name] = median(xs)
	}
	var alloc, mallocs, gcs, pause, write, msU, msT []float64
	for _, rd := range untraced {
		alloc = append(alloc, float64(rd.allocBytes)/rd.userBytes)
		mallocs = append(mallocs, float64(rd.mallocs)/float64(len(desApproaches)*desIters))
		gcs = append(gcs, float64(rd.gcCycles))
		pause = append(pause, rd.gcPause.Seconds())
		write = append(write, rd.damarisUS())
		msU = append(msU, rd.msPerIter())
	}
	for _, rd := range traced {
		msT = append(msT, rd.msPerIter())
	}
	m["go.alloc_bytes_per_user_byte"] = median(alloc)
	m["go.mallocs_per_iter"] = median(mallocs)
	m["go.gc_cycles"] = median(gcs)
	m["go.gc_pause_s"] = median(pause)
	m["bench.write_p99_us"] = quantile(write, 0.99)
	m["bench.write_samples"] = float64(len(write))
	m["bench.trace_overhead_frac"] = median(msT)/median(msU) - 1
	return m
}
