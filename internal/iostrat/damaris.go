package iostrat

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/workload"
)

// nodeShm models one node's shared-memory segment between simulation
// cores and the dedicated core: bounded capacity, a FIFO of pending
// iterations, and the paper's §V.C policy of *skipping* an iteration
// (rather than blocking the simulation) when the segment is full.
type nodeShm struct {
	eng      *des.Engine
	capacity float64
	occupied float64
	pending  []shmIter
	waiting  *des.Future // dedicated core parked on an empty queue
	skipped  int
	closed   bool
	dead     bool    // node failed: offers are dropped, not skipped
	lost     float64 // bytes dropped because the node was dead
}

type shmIter struct {
	iter  int
	bytes float64
}

// offer tries to enqueue an iteration's data; it reports false (and counts
// a skip) when the segment cannot hold it. On a dead node the data is
// dropped silently and accounted as failure loss, not as a skip.
func (s *nodeShm) offer(it int, bytes float64) bool {
	if s.dead {
		s.lost += bytes
		return true
	}
	if s.occupied+bytes > s.capacity {
		s.skipped++
		return false
	}
	s.occupied += bytes
	s.pending = append(s.pending, shmIter{iter: it, bytes: bytes})
	s.wake()
	return true
}

// offerEmpty enqueues a zero-byte marker for an iteration whose data was
// dropped, keeping tree-mode dedicated cores in iteration lockstep: the
// node still participates in the aggregation round, contributing nothing.
func (s *nodeShm) offerEmpty(it int) {
	if s.dead {
		return
	}
	s.pending = append(s.pending, shmIter{iter: it})
	s.wake()
}

// kill marks the node's I/O stack dead: queued and future offers are
// dropped and charged to the failure loss.
func (s *nodeShm) kill() {
	for _, it := range s.pending {
		s.lost += it.bytes
	}
	s.dead = true
	s.pending = nil
	s.occupied = 0
}

func (s *nodeShm) wake() {
	if s.waiting != nil {
		f := s.waiting
		s.waiting = nil
		f.Complete()
	}
}

// take blocks the dedicated core until data is pending, then dequeues one
// iteration. It returns false when closed and drained.
func (s *nodeShm) take(p *des.Proc) (shmIter, bool) {
	for len(s.pending) == 0 {
		if s.closed {
			return shmIter{}, false
		}
		s.waiting = s.eng.NewFuture()
		p.Await(s.waiting)
	}
	it := s.pending[0]
	s.pending = s.pending[1:]
	return it, true
}

// free releases an iteration's bytes after the dedicated core wrote them.
func (s *nodeShm) free(bytes float64) { s.occupied -= bytes }

// close marks the producer finished; a parked dedicated core is woken to
// observe the closure.
func (s *nodeShm) close() {
	s.closed = true
	s.wake()
}

// bandwidthShifter is the model-level knob scenario PFS shifts reach
// through the backend stack (implemented by storage.PFS).
type bandwidthShifter interface{ SetBandwidthFactor(float64) }

// runDamaris models the Damaris approach: per node, CoresPerNode-D
// simulation cores and D dedicated cores. Simulation cores pay only the
// shared-memory write (bytes/ShmBandwidth + per-variable overhead); the
// dedicated core asynchronously aggregates the node's output and writes
// it overlapped with the next compute phase. Because the node computes
// the same (weak-scaling) problem on fewer cores, the compute phase
// stretches by CoresPerNode/(CoresPerNode-D) — the paper's "slight
// impact".
//
// With Fanout < 2 every node writes FilesPerIter files per iteration
// (the paper's baseline). With Fanout >= 2 the dedicated cores form the
// k-ary aggregation forest of internal/cluster: leaves forward their
// node's iteration over the NIC, interior nodes batch their subtree,
// and only tree roots touch the backend — few, large, striped
// sequential streams.
//
// A Config.Scenario trace makes the workload per-iteration (volumes,
// compute times, variable counts), steps the NIC/PFS bandwidth mid-run
// and merges node losses into the failure schedule; Config.Adapt =
// AdaptAdaptive lets tree mode re-form the forest at epoch fences when
// the observed bandwidths say the configured shape is no longer right.
func runDamaris(cfg Config) (Result, error) {
	if err := ValidateScheduling(cfg.Scheduling); err != nil {
		return Result{}, err
	}
	if err := ValidateAdaptPolicy(cfg.Adapt); err != nil {
		return Result{}, err
	}
	if err := cfg.InSitu.validate(cfg.Fanout >= 2); err != nil {
		return Result{}, err
	}
	if cfg.Adapt == AdaptAdaptive && cfg.Fanout < 2 {
		return Result{}, fmt.Errorf("iostrat: adaptive tree re-formation requires tree mode (Fanout >= 2)")
	}
	plat := cfg.Platform
	trace := cfg.Scenario
	if trace != nil && trace.Nodes != plat.Nodes {
		return Result{}, fmt.Errorf("iostrat: scenario %q generated for %d nodes, platform has %d",
			trace.Scenario, trace.Nodes, plat.Nodes)
	}
	eng := des.NewEngine()
	root := rng.New(cfg.Seed, 3)
	be, baseBE, err := cfg.newBackend(eng, root.Named("pfs"))
	if err != nil {
		return Result{}, err
	}

	w := cfg.Workload
	dedicated := cfg.DedicatedPerNode
	computePerNode := plat.CoresPerNode - dedicated
	if computePerNode <= 0 {
		panic("iostrat: no compute cores left on the node")
	}
	nComputeRanks := plat.Nodes * computePerNode
	// Same per-node problem on fewer cores: longer compute phase.
	stretch := float64(plat.CoresPerNode) / float64(computePerNode)
	computeTime := w.ComputeTime * stretch
	// The node still produces the same output volume per iteration.
	nodeBytes := w.NodeBytes(plat.CoresPerNode)

	// Per-iteration workload: the flat numbers, or the scenario trace's.
	computeAt := func(int) float64 { return computeTime }
	nodeBytesAt := func(int) float64 { return nodeBytes }
	varsAt := func(int) int { return w.VarsPerCore }
	if trace != nil {
		computeAt = func(it int) float64 { return trace.Iters[it].ComputeTime * stretch }
		nodeBytesAt = func(it int) float64 {
			return trace.Iters[it].BytesPerCore * float64(plat.CoresPerNode)
		}
		varsAt = func(it int) int { return trace.Iters[it].VarsPerCore }
	}

	// Scenario node losses merge into the failure schedule; on a node
	// listed twice the earliest death wins, as always.
	failures := cfg.Failures
	if trace != nil {
		if losses := trace.NodeLosses(); len(losses) > 0 {
			merged := cluster.NewFailureSchedule()
			for _, n := range cfg.Failures.Nodes() {
				k, _ := cfg.Failures.At(n)
				merged.Add(n, k)
			}
			for _, l := range losses {
				merged.Add(l.Node, l.Iteration)
			}
			failures = merged
		}
	}

	treeMode := cfg.Fanout >= 2

	res := Result{Approach: Damaris, Platform: plat, Workload: w, Backend: cfg.Backend}
	res.IOTimes = make([]float64, w.Iterations)
	res.RankWriteTimes = make([]float64, 0, nComputeRanks*w.Iterations)

	stepBarrier := eng.NewBarrier(nComputeRanks)
	phaseStart := make([]float64, w.Iterations)

	shms := make([]*nodeShm, plat.Nodes)
	arrived := make([][]int, plat.Nodes) // per node, per iteration rank count
	for n := range shms {
		shms[n] = &nodeShm{eng: eng, capacity: cfg.ShmCapacity}
		arrived[n] = make([]int, w.Iterations)
	}

	// One broker per run, shared by every dedicated core and tree root:
	// the schedule is cluster-wide, not per backend stream.
	schedule := newScheduler(eng, cfg.Scheduling, be.Targets())

	// Platform shifts: rank 0 applies the trace's cumulative factors at
	// the phase start of the shift's iteration. NIC shifts scale the
	// tree-mode forward bandwidth; PFS shifts reach the storage model
	// through the backend stack; both (and rejoins) mark the adaptive
	// controller dirty so it re-evaluates the forest shape.
	var tr *treeRun
	shifter, _ := baseBE.(bandwidthShifter)
	curNIC, curPFS := 1.0, 1.0
	applyShifts := func(it int) {
		if trace == nil || len(trace.ShiftsAt(it)) == 0 {
			return
		}
		if f := trace.NICFactorAt(it); f != curNIC {
			curNIC = f
			if tr != nil {
				tr.nicFactor = f
				tr.adaptDirty = true
			}
		}
		if f := trace.PFSFactorAt(it); f != curPFS {
			curPFS = f
			if shifter != nil {
				shifter.SetBandwidthFactor(f)
			}
			if tr != nil {
				tr.adaptDirty = true
			}
		}
		for _, s := range trace.ShiftsAt(it) {
			// A rejoin does not resurrect the node's I/O stack on this
			// face, but it is a topology event the adaptive policy
			// re-evaluates on.
			if s.Kind == workload.ShiftNodeRejoin && tr != nil {
				tr.adaptDirty = true
			}
		}
	}

	// Simulation cores.
	var appEnd float64
	for r := 0; r < nComputeRanks; r++ {
		rank := r
		node := rank / computePerNode
		compRng := root.Named("compute").Child(uint64(rank))
		eng.Spawn("sim", func(p *des.Proc) {
			for it := 0; it < w.Iterations; it++ {
				p.Wait(computeAt(it) * compRng.UnitLogNormal(w.ComputeJitter))
				p.Arrive(stepBarrier)
				if rank == 0 {
					be.BeginPhase()
					applyShifts(it)
					phaseStart[it] = p.Now()
				}
				// The application-visible "I/O": copy the variables into
				// the shared-memory segment.
				t0 := p.Now()
				nb := nodeBytesAt(it)
				p.Wait(nb/float64(computePerNode)/plat.ShmBandwidth +
					float64(varsAt(it))*plat.ShmWriteOverhead)
				res.RankWriteTimes = append(res.RankWriteTimes, p.Now()-t0)
				// Last core of the node in this iteration publishes the
				// node's data to the dedicated core.
				arrived[node][it]++
				if arrived[node][it] == computePerNode {
					if !shms[node].offer(it, nb) && treeMode {
						// Data lost, but the node must still take part in
						// the aggregation round.
						shms[node].offerEmpty(it)
					}
				}
				p.Arrive(stepBarrier)
				if rank == 0 {
					res.IOTimes[it] = p.Now() - phaseStart[it]
				}
			}
			if rank == 0 {
				appEnd = p.Now()
				for _, s := range shms {
					s.close()
				}
			}
		})
	}

	// Dedicated cores (one writer proc per node; D dedicated cores share
	// the same work, so busy time is attributed to the node's pool).
	if treeMode {
		tr = &treeRun{
			cfg:      cfg,
			eng:      eng,
			be:       be,
			schedule: schedule,
			res:      &res,
			failures: failures,
			agg: cluster.NewAggregation(plat.Nodes, cfg.Fanout, cfg.AggRoots,
				func(into, from float64) float64 { return into + from }),
			waiting:     make([]*des.Future, plat.Nodes),
			rootCovered: make([]int, w.Iterations),
			writeEnd:    make([]float64, w.Iterations),
			phaseStart:  phaseStart,
			computeAt:   computeAt,
			nodeBytesAt: nodeBytesAt,
			nicFactor:   1,
			obsNIC:      plat.NICBandwidth,
			obsPFS:      plat.PFS.OSTBandwidth,
			lastAdapt:   -adaptCooldown,
			liveNodes:   plat.Nodes,
		}
		// One bounded frame queue and one analysis consumer per root
		// ordinal — a promoted root inherits its predecessor's queue
		// along with the stripe window, and re-formations that widen
		// the root set grow the array mid-run.
		tr.growInsitu(tr.agg.NumRoots(0))
	}
	for n := 0; n < plat.Nodes; n++ {
		node := n
		if treeMode {
			eng.Spawn("dedicated", func(p *des.Proc) {
				tr.runNode(p, shms[node], node)
			})
			continue
		}
		eng.Spawn("dedicated", func(p *des.Proc) {
			fileSeq := 0
			for {
				item, ok := shms[node].take(p)
				if !ok {
					return
				}
				t0 := p.Now()
				files := cfg.FilesPerIter
				per := item.bytes / float64(files)
				pat := storage.BigSequential
				if per < 64e6 {
					pat = storage.SmallFile
				}
				for f := 0; f < files; f++ {
					// Usage-balanced allocation (Lustre QoS allocator):
					// spread node files round-robin over the OSTs.
					ost := (node + fileSeq*plat.Nodes) % be.Targets()
					fileSeq++
					release := schedule.acquire(p, writeReq{
						holder:   node,
						base:     ost,
						stripes:  1,
						deadline: phaseStart[item.iter] + computeAt(item.iter),
						bytes:    per,
					})
					be.Create(p)
					be.Write(p, ost, per, pat)
					be.Close(p)
					release()
					res.FilesCreated++
				}
				shms[node].free(item.bytes)
				res.DedicatedBusy += p.Now() - t0
			}
		})
	}

	drainEnd := eng.Run()
	res.TotalTime = appEnd
	res.DrainTime = drainEnd
	acc := be.Accounting()
	bs := schedule.brokerStats()
	acc.AddBroker(bs)
	res.BytesWritten = acc.BytesWritten
	res.IOWindow = acc.IOBusyTime
	res.BytesSaved = acc.BytesSaved
	res.CodecCPUTime = acc.EncodeTime + acc.DecodeTime
	res.DedupBytesSaved = acc.DedupBytesSaved
	res.HashCPUTime = acc.ChunkHashTime
	res.SchedWaitTime = acc.TokenWaitTime
	res.RootContention = bs.ContendedGrants
	res.DedicatedTotal = float64(plat.Nodes*dedicated) * drainEnd
	for _, s := range shms {
		res.SkippedIters += s.skipped
	}
	if treeMode {
		res.Completeness = make([]float64, w.Iterations)
		res.TreeWriteLatencies = make([]float64, w.Iterations)
		for it := 0; it < w.Iterations; it++ {
			res.Completeness[it] = float64(tr.rootCovered[it]) / float64(plat.Nodes)
			if tr.writeEnd[it] > phaseStart[it] {
				res.TreeWriteLatencies[it] = tr.writeEnd[it] - phaseStart[it]
			}
		}
		// Merges nobody released (stragglers, a dead node's orphans with
		// no drain target) are lost payload, as is everything a dead
		// node's shm dropped.
		for n := 0; n < plat.Nodes; n++ {
			for _, e := range tr.agg.Flush(n) {
				res.LostBytes += e.Payload
			}
		}
		for _, s := range shms {
			res.LostBytes += s.lost
		}
		for _, q := range tr.insituQs {
			res.FramesDropped += int(q.q.Dropped())
		}
	}
	return res, nil
}

// adaptCooldown is the minimum iteration spacing between adaptation
// decisions that were not forced by a platform shift or node death.
const adaptCooldown = 2

// treeRun bundles the state shared by every dedicated core of a
// tree-mode run: the aggregation core (topology epochs, failure
// overlay, pending merges), the shared write scheduler, the adaptation
// controller state and the per-iteration measurements.
type treeRun struct {
	cfg      Config
	eng      *des.Engine
	be       storage.Backend
	schedule writeScheduler
	res      *Result
	failures *cluster.FailureSchedule

	// agg is the aggregation core both faces share, with byte volumes as
	// payload; waiting holds each dedicated core's parking future while
	// it waits for the core to release its iteration.
	agg     *cluster.Aggregation[float64]
	waiting []*des.Future

	rootCovered []int     // per iteration, origin nodes reaching a root
	writeEnd    []float64 // per iteration, last root-write completion
	phaseStart  []float64
	computeAt   func(it int) float64
	nodeBytesAt func(it int) float64

	// Adaptation state (AdaptAdaptive): EWMAs of the observed NIC and
	// per-stream PFS bandwidths, the dirty flag platform shifts and
	// deaths raise, and the last iteration a decision ran. nicFactor is
	// the trace's current cumulative NIC multiplier (1 without shifts).
	nicFactor  float64
	obsNIC     float64
	obsPFS     float64
	adaptDirty bool
	lastAdapt  int

	// insituQs holds one analysis frame queue per root ordinal (nil
	// when Config.InSitu is off); liveNodes counts dedicated cores
	// still running, so the queues close — releasing the consumer
	// procs — exactly when no publisher remains.
	insituQs  []*insituQ
	liveNodes int
}

// maybeAdapt re-derives the forest shape from the bandwidths observed
// so far and re-forms the tree when the recommendation moved — right
// after a platform shift or node death, otherwise at most every
// adaptCooldown iterations. Called at a root once its write completes,
// i.e. exactly when a fresh PFS observation exists.
func (tr *treeRun) maybeAdapt(it int) {
	if tr.cfg.Adapt != AdaptAdaptive {
		return
	}
	if !tr.adaptDirty && it < tr.lastAdapt+adaptCooldown {
		return
	}
	tr.adaptDirty = false
	tr.lastAdapt = it
	next := it + 1
	if next >= tr.cfg.Workload.Iterations {
		return
	}
	fanout, roots := cluster.RecommendTopology(tr.cfg.Platform.Nodes,
		tr.nodeBytesAt(next), tr.obsNIC, tr.obsPFS, tr.be.Targets())
	if f, r := tr.agg.Shape(); fanout == f && roots == r {
		return
	}
	from, err := tr.agg.Reform(fanout, roots)
	if err != nil {
		return // every node dead: nothing left to re-form
	}
	tr.res.TreeReforms++
	tr.growInsitu(tr.agg.NumRoots(from))
}

// observeNIC and observePFS fold one measured transfer into the EWMAs
// the adaptation controller steers by (0.7 history, 0.3 new sample).
func (tr *treeRun) observeNIC(bw float64) { tr.obsNIC = 0.7*tr.obsNIC + 0.3*bw }
func (tr *treeRun) observePFS(bw float64) { tr.obsPFS = 0.7*tr.obsPFS + 0.3*bw }

// nodeDone retires one dedicated core; the last one out closes every
// in-situ queue so consumers drain their backlog and exit (the engine
// treats an eternally parked proc as a deadlock).
func (tr *treeRun) nodeDone() {
	tr.liveNodes--
	if tr.liveNodes == 0 {
		for _, q := range tr.insituQs {
			q.close()
		}
	}
}

// deadline is when iteration it's spare window closes: the next output
// phase starts roughly one compute phase after this one began, and the
// cluster schedule wants the write done by then (§IV.C).
func (tr *treeRun) deadline(it int) float64 {
	return tr.phaseStart[it] + tr.computeAt(it)
}

// runNode is one dedicated core's life in tree mode: per iteration,
// join the node's coverage to the iteration's merge, wait until the
// aggregation core releases it (the node's live subtree delivered),
// then either forward the merged volume upward over the NIC or — at a
// root — stripe it onto the backend as few large sequential streams.
// The core routes by the iteration's topology epoch at release time: a
// failure elsewhere can re-route this node, and a re-formation can
// change its role for *later* iterations while the in-flight ones keep
// their original tree. A node's own scheduled death ends its loop.
func (tr *treeRun) runNode(p *des.Proc, shm *nodeShm, node int) {
	defer tr.nodeDone()
	cfg, be, res := tr.cfg, tr.be, tr.res
	plat := cfg.Platform
	fileSeq := 0
	failAt, willFail := tr.failures.At(node)

	for it := 0; it < cfg.Workload.Iterations; it++ {
		item, ok := shm.take(p)
		if !ok {
			return
		}
		if willFail && item.iter >= failAt {
			tr.failNode(shm, node, item)
			return
		}
		// The node's coverage joins the merge now, fencing re-formations
		// past this iteration; its own volume joins when the merged
		// subtree leaves the node.
		tr.deliver(node, item.iter, 0, []int{node})

		// Awaiting stragglers is idle time, not work. Only this
		// iteration can be released here: every other pending merge at
		// the node lacks the node's own coverage.
		var e cluster.Emit[float64]
		for {
			if ready := tr.agg.Poll(node); len(ready) > 0 {
				e = ready[0]
				break
			}
			tr.waiting[node] = tr.eng.NewFuture()
			p.Await(tr.waiting[node])
		}
		subtree := item.bytes + e.Payload

		t1 := p.Now()
		if e.Kind == cluster.EmitForward {
			if subtree > 0 {
				// Store-and-forward: the sender serializes the batch onto
				// its NIC (at the trace's current effective bandwidth);
				// the parent sees it after latency.
				tSend := p.Now()
				p.Wait(subtree/(plat.NICBandwidth*tr.nicFactor) + plat.NICLatency)
				if el := p.Now() - tSend; el > 0 {
					tr.observeNIC(subtree / el)
				}
			}
			// The parent may have died during the transfer: the core
			// relays along its drain chain.
			tr.deliver(e.To, item.iter, subtree, e.Covers)
		} else {
			tr.rootCovered[item.iter] += len(e.Covers)
			ord := tr.agg.RootOrdinal(node, item.iter)
			numRoots := tr.agg.NumRoots(item.iter)
			stripes := rootStripes(cfg, be.Targets(), numRoots)
			if cfg.InSitu.Mode == InSituStream {
				// Streaming coupling: the consumer sees the merged frame
				// the moment aggregation completes, overlapped with the
				// write below. Only a Block-policy consumer can delay the
				// write path here (measured in StreamBlockTime).
				tr.publishInSitu(p, ord, shmIter{iter: item.iter, bytes: subtree})
			}
			if subtree > 0 {
				files := cfg.FilesPerIter
				per := subtree / float64(files)
				for f := 0; f < files; f++ {
					// Spread root files over the target array, stripes-wide
					// windows per file so roots do not collide.
					base := ((ord + fileSeq*numRoots) * stripes) % be.Targets()
					fileSeq++
					release := tr.schedule.acquire(p, writeReq{
						holder:   node,
						base:     base,
						stripes:  stripes,
						deadline: tr.deadline(item.iter),
						bytes:    subtree,
					})
					be.Create(p)
					tw := p.Now()
					futs := make([]*des.Future, stripes)
					for s := 0; s < stripes; s++ {
						futs[s] = be.WriteAsync((base+s)%be.Targets(), per/float64(stripes),
							storage.BigSequential)
					}
					for _, fu := range futs {
						p.Await(fu)
					}
					if el := p.Now() - tw; el > 0 {
						tr.observePFS(per / float64(stripes) / el)
					}
					be.Close(p)
					release()
					res.FilesCreated++
				}
				if p.Now() > tr.writeEnd[item.iter] {
					tr.writeEnd[item.iter] = p.Now()
				}
				tr.maybeAdapt(item.iter)
			}
			if cfg.InSitu.Mode == InSituFile {
				// File-then-read coupling: the frame is only announced
				// once the object is durable; the consumer pays the
				// read-back before analyzing.
				tr.publishInSitu(p, ord, shmIter{iter: item.iter, bytes: subtree})
			}
		}
		res.DedicatedBusy += p.Now() - t1
		shm.free(item.bytes)
	}
}

// rootStripes resolves how many backend targets each root stream is
// striped over: the configured override, or cluster.StripeWindow. The
// write path and the restart-read model share this, so the read model
// always prices the layout the write side produced.
func rootStripes(cfg Config, targets, numRoots int) int {
	if cfg.RootStripes > 0 {
		return min(cfg.RootStripes, targets)
	}
	return cluster.StripeWindow(targets, numRoots)
}

// deliver hands a volume to the aggregation core at node to (relayed
// along the drain chain when to is dead) and wakes the dedicated core
// it lands at; a volume with nowhere to land is lost.
func (tr *treeRun) deliver(to, it int, b float64, covers []int) {
	at, ok := tr.agg.Deliver(to, it, b, covers)
	if !ok {
		tr.res.LostBytes += b
		return
	}
	tr.wake(at)
}

// wake unparks node n's dedicated core, if parked; it polls the core
// again on resumption.
func (tr *treeRun) wake(n int) {
	if f := tr.waiting[n]; f != nil {
		tr.waiting[n] = nil
		f.Complete()
	}
}

// failNode executes one scheduled death on the DES side: the core
// re-routes every topology epoch and hands the corpse's pending merges
// to their drain targets, delivered here synchronously; any scheduling
// tokens the dead node holds or waits for are freed, the lost own
// output accounted, and every parked dedicated core woken so it
// re-checks its (now smaller) coverage requirement.
func (tr *treeRun) failNode(shm *nodeShm, node int, item shmIter) {
	res := tr.res
	edges, drained, _ := tr.agg.Die(node, item.iter)
	res.NodesFailed++
	res.ReroutedEdges += len(edges)
	// A dead root must not strand an OST token for the rest of the run:
	// whatever it held or queued for goes back to the broker.
	tr.schedule.releaseHolder(node)
	// The triggering iteration's own output is the mid-iteration loss;
	// kill() charges whatever else the segment held or receives later.
	res.LostBytes += item.bytes
	shm.kill()
	for _, e := range drained {
		tr.deliver(e.To, e.It, e.Payload, e.Covers)
	}
	for n := range tr.waiting {
		tr.wake(n)
	}
	// The machine shrank: an adaptive run may want a different forest.
	tr.adaptDirty = true
}
