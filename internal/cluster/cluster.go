package cluster

import (
	"fmt"
	"sync"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/storage"
)

// Hook is a cluster-wide end-of-iteration plugin: it runs at a tree
// root once that root's whole subtree has delivered an iteration, with
// the merged batch still in memory. The batch is normalized before the
// hook runs, so hooks observe the same (node, source, variable) order
// that EncodeBatch later stores, regardless of arrival order. Block
// payloads live in pooled buffers that are recycled right after the
// iteration is stored — a hook that wants bytes past its own return
// must copy them.
type Hook interface {
	// Name identifies the hook in errors.
	Name() string
	// OnIteration sees the merged batch before it is stored.
	OnIteration(it int, b *Batch) error
}

// HookFunc adapts a function to the Hook interface.
type HookFunc struct {
	HookName string
	Fn       func(it int, b *Batch) error
}

// Name implements Hook.
func (h HookFunc) Name() string { return h.HookName }

// OnIteration implements Hook.
func (h HookFunc) OnIteration(it int, b *Batch) error { return h.Fn(it, b) }

// Stats aggregates what the cluster measured.
type Stats struct {
	// BatchesForwarded counts node→parent transfers.
	BatchesForwarded int
	// BytesForwarded is the payload volume of those transfers.
	BytesForwarded int64
	// ObjectsWritten counts root data objects handed to the store
	// (manifests are counted separately in ManifestsWritten).
	ObjectsWritten int
	// ObjectBytes is the encoded size of those objects.
	ObjectBytes int64
	// ManifestsWritten counts per-iteration manifest objects stored
	// alongside the data objects (one per data object unless
	// Config.DisableManifests is set or the manifest Put failed).
	ManifestsWritten int
	// IterationsCompleted counts iterations all live roots finished.
	IterationsCompleted int
	// PartialIterations counts the distinct iterations some root stored
	// without its full live-subtree coverage (stragglers or orphaned
	// data flushed at shutdown — data loss tolerated, as in the paper's
	// skip policy). An iteration missing only dead nodes' data is not
	// partial; that loss is visible in Completeness instead.
	PartialIterations int
	// NodesFailed counts nodes killed by the failure schedule.
	NodesFailed int
	// BlocksLost counts blocks that never reached a root object:
	// produced on a dead node, or orphaned with nowhere to drain.
	BlocksLost int
	// ReroutedEdges counts tree edges moved by failures, including
	// root promotions.
	ReroutedEdges int
	// TreeReforms counts mid-run topology re-formations (Reform): new
	// tree epochs opened by elastic adaptation. Failures re-route
	// edges inside an epoch and are counted separately above.
	TreeReforms int
	// Completeness maps iteration → fraction of the cluster's nodes
	// whose blocks reached a stored root object for that iteration
	// (1.0 for every iteration when nothing fails or straggles).
	Completeness map[int]float64
	// QuotaDroppedObjects counts root objects skipped because storing
	// them would cross the tenant's Quota.MaxBytes — the skip policy
	// applied to budget rather than time.
	QuotaDroppedObjects int
	// ObjectsReleased counts objects (data and manifests) the retention
	// window aged out of the store's reference set (RunSpec.Retain on a
	// storage.Retainer store). Released objects stay readable until the
	// store's next GC sweep.
	ObjectsReleased int

	// Token-broker counters, populated only when the run has a broker.
	// On a broker shared across tenants, every counter below is THIS
	// tenant's slice (grants are holder-tagged; see ClusterConfig.Broker).

	// TokenWaitTime is the total wall-clock seconds roots spent waiting
	// for a write token; TokenGrants counts tokens granted.
	TokenWaitTime float64
	TokenGrants   int
	// RootTokenWait splits TokenWaitTime per (tenant-local) root node
	// id, and RootContention counts each root's grants that had to
	// queue behind another root — same-tenant or cross-tenant — the
	// interference the broker absorbed.
	RootTokenWait  map[int]float64
	RootContention map[int]int
	// TokensReclaimed counts tokens (held or queued) freed because
	// their holder was killed by the failure schedule or evicted.
	TokensReclaimed int
}

// add accumulates another tenant's counters into s (map fields are
// summed key-wise; Completeness keys collide only within one tenant, so
// the union is taken). Used by ServiceStats rollups.
func (s *Stats) add(o Stats) {
	s.BatchesForwarded += o.BatchesForwarded
	s.BytesForwarded += o.BytesForwarded
	s.ObjectsWritten += o.ObjectsWritten
	s.ObjectBytes += o.ObjectBytes
	s.ManifestsWritten += o.ManifestsWritten
	s.IterationsCompleted += o.IterationsCompleted
	s.PartialIterations += o.PartialIterations
	s.NodesFailed += o.NodesFailed
	s.BlocksLost += o.BlocksLost
	s.ReroutedEdges += o.ReroutedEdges
	s.TreeReforms += o.TreeReforms
	s.QuotaDroppedObjects += o.QuotaDroppedObjects
	s.ObjectsReleased += o.ObjectsReleased
	s.TokenWaitTime += o.TokenWaitTime
	s.TokenGrants += o.TokenGrants
	s.TokensReclaimed += o.TokensReclaimed
}

// Cluster is a multi-node Damaris deployment: N per-node middleware
// instances plus the cross-node aggregation layer. It is one tenant's
// view of the machine — under a Service, several Clusters share the
// ClusterConfig's store and broker, each tagging broker requests with
// its own tenant id and holder span.
type Cluster struct {
	cc         ClusterConfig
	spec       RunSpec
	tenant     int // tenant id on the shared broker (0 standalone)
	holderBase int // first broker holder id of this tenant's span
	nodes      []*core.Node
	aggs       []*aggregator
	wg         sync.WaitGroup

	// mu guards the aggregation core, the stats and the completion
	// bookkeeping. Every merge moves through the core under mu: a
	// forwarder delivers its node's batch, an aggregator releases what
	// the core completed and delivers forwards at once, a death drains
	// the corpse in the same critical section. No batch is ever in
	// flight outside the core, so a death or re-formation is atomic
	// with respect to every merge. Each aggregator's mailbox has its own
	// lock (aggregator.mboxMu) and only carries wake-ups. Lock order: mu
	// before mboxMu, never the reverse.
	mu        sync.Mutex
	agg       *Aggregation[*Batch]
	stats     Stats
	covered   map[int]int  // iteration → origin nodes stored at roots
	partials  map[int]bool // iterations stored below full live coverage
	completed map[int]bool // iterations done at every live root
	errs      []error
	doneRoots map[int]int // iteration → roots that stored it
	iterDone  *sync.Cond
}

// New builds and starts a standalone single-tenant cluster: every
// node's shared-memory runtime, the forwarding plugin on each dedicated
// core, and one aggregator per node. It is Config split into its two
// halves and handed to newTenantCluster as tenant 0.
func New(cfg Config) (*Cluster, error) {
	cc, spec := cfg.split()
	return newTenantCluster(cc, spec, 0)
}

// newTenantCluster builds and starts one tenant's cluster on the given
// substrate. The tenant id selects the holder span its broker requests
// are tagged with; a standalone run is tenant 0, whose span starts at
// holder 0 so broker holder ids equal node ids as before.
func newTenantCluster(cc ClusterConfig, spec RunSpec, tenant int) (*Cluster, error) {
	cc = cc.withDefaults()
	spec = spec.withDefaults()
	if cc.Platform.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: platform has %d nodes", cc.Platform.Nodes)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if cc.Store == nil {
		return nil, fmt.Errorf("cluster: nil object store")
	}
	clients := cc.Platform.CoresPerNode - cc.DedicatedPerNode
	if clients <= 0 {
		return nil, fmt.Errorf("cluster: %d cores/node leaves no simulation cores",
			cc.Platform.CoresPerNode)
	}

	c := &Cluster{
		cc:         cc,
		spec:       spec,
		tenant:     tenant,
		holderBase: tenantHolderBase(tenant),
		agg: NewAggregation(cc.Platform.Nodes, cc.Fanout, cc.Roots,
			func(into, from *Batch) *Batch { into.merge(from); return into }),
		nodes:     make([]*core.Node, cc.Platform.Nodes),
		aggs:      make([]*aggregator, cc.Platform.Nodes),
		covered:   map[int]int{},
		partials:  map[int]bool{},
		completed: map[int]bool{},
		doneRoots: map[int]int{},
	}
	c.iterDone = sync.NewCond(&c.mu)

	for i := range c.aggs {
		a := &aggregator{c: c, node: i, written: map[int]bool{}}
		a.avail = sync.NewCond(&a.mboxMu)
		c.aggs[i] = a
	}
	for i := range c.nodes {
		nodeID := i
		opts := core.Options{
			NodeID:    nodeID,
			OutputDir: cc.OutputDir,
			Logger:    cc.Logger,
			ExtraPlugins: map[string][]core.Plugin{
				"end_iteration": {&forwarder{agg: c.aggs[nodeID]}},
			},
		}
		n, err := core.NewNode(spec.Meta, clients, opts)
		if err != nil {
			for j := 0; j < i; j++ {
				c.nodes[j].Shutdown()
			}
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i] = n
	}
	for _, a := range c.aggs {
		c.wg.Add(1)
		go a.run()
	}
	return c, nil
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// Tree returns a snapshot of the current aggregation topology — the
// latest epoch — including any failure re-routing applied so far.
func (c *Cluster) Tree() Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.Tree()
}

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// ClientsPerNode returns the simulation client count on each node —
// what a driver loops over when it writes through Client.
func (c *Cluster) ClientsPerNode() int {
	return c.cc.Platform.CoresPerNode - c.cc.DedicatedPerNode
}

// Node returns one node's middleware instance.
func (c *Cluster) Node(i int) *core.Node { return c.nodes[i] }

// Client returns the handle for simulation core source on node i.
func (c *Cluster) Client(node, source int) *core.Client {
	return c.nodes[node].Client(source)
}

// Stats returns a snapshot of the cluster counters. Token counters are
// carved out of the (possibly shared) broker's holder-tagged ledger:
// only grants and waits of this tenant's holder span count, keyed back
// to tenant-local node ids — so two tenants on one broker each see
// exactly their own slice, and the slices sum to the broker totals.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	s.Completeness = make(map[int]float64, len(c.covered))
	for it, n := range c.covered {
		s.Completeness[it] = float64(n) / float64(len(c.nodes))
	}
	c.mu.Unlock()
	if c.cc.Broker != nil {
		bs := c.cc.Broker.Stats()
		lo, hi := c.holderBase, c.holderBase+len(c.nodes)
		for h, n := range bs.GrantsByHolder {
			if h >= lo && h < hi {
				s.TokenGrants += n
			}
		}
		s.RootTokenWait = map[int]float64{}
		for h, w := range bs.WaitByHolder {
			if h >= lo && h < hi {
				s.RootTokenWait[h-lo] = w
				s.TokenWaitTime += w
			}
		}
		s.RootContention = map[int]int{}
		for h, n := range bs.ContendedByHolder {
			if h >= lo && h < hi {
				s.RootContention[h-lo] = n
			}
		}
	}
	return s
}

// Tenant returns the tenant id this cluster runs as (0 standalone).
func (c *Cluster) Tenant() int { return c.tenant }

// objectName is the deterministic name root node stores iteration it
// under — shared by the write path and the retention release so the two
// can never drift.
func (c *Cluster) objectName(node, it int) string {
	return fmt.Sprintf("%s-root%03d-it%06d", c.spec.JobName, node, it)
}

// rootTargets maps a root to its broker target window for one
// iteration: one BrokerStripes-wide window per root ordinal of the
// iteration's epoch — a promoted root inherits the dead root's window,
// and a re-formed epoch gets its own window layout without disturbing
// older iterations'.
func (c *Cluster) rootTargets(node, it int) []int {
	stripes := c.cc.BrokerStripes
	if stripes < 1 {
		stripes = 1
	}
	c.mu.Lock()
	idx := c.agg.RootOrdinal(node, it)
	c.mu.Unlock()
	targets := make([]int, stripes)
	for i := range targets {
		targets[i] = idx*stripes + i
	}
	return targets
}

// Errors returns the aggregation/store/hook errors collected so far.
func (c *Cluster) Errors() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

// WaitIteration blocks until every live tree root has stored iteration
// it. A failure mid-wait shrinks the requirement to the surviving
// roots, so a killed node cannot wedge the caller; when every root is
// dead, nothing more will ever be stored and the wait returns.
func (c *Cluster) WaitIteration(it int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.completed[it] && len(c.agg.Roots(it)) > 0 {
		c.iterDone.Wait()
	}
}

// Shutdown drains every node, flushes the aggregation trees and
// returns the first error observed anywhere in the cluster.
func (c *Cluster) Shutdown() error {
	var first error
	for i, n := range c.nodes {
		// Draining the node runs every queued end_iteration, so the
		// forwarder has delivered everything before the eof below.
		if err := n.Shutdown(); err != nil && first == nil {
			first = fmt.Errorf("node %d: %w", i, err)
		}
		c.aggs[i].wake(true)
	}
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if first == nil && len(c.errs) > 0 {
		first = c.errs[0]
	}
	return first
}

func (c *Cluster) fail(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
	c.cc.Logger.Printf("cluster: %v", err)
}

// Cancel evicts the run mid-flight: every node is killed as if the
// failure schedule had fired, which re-routes nothing (the whole forest
// dies), reclaims the tenant's broker tokens, drains in-flight merges
// into the lost-blocks accounting — returning their pooled payload
// buffers — and then shuts the nodes down. Safe to call at any point,
// including concurrently with client writes; it is how a Service
// enforces an eviction. Every node dies in one critical section, so no
// survivor stores anything in between; an evicted node owes no
// iteration, so its death is recorded at iteration 0.
func (c *Cluster) Cancel() error {
	c.mu.Lock()
	for i := range c.nodes {
		c.kill(i, 0)
	}
	c.mu.Unlock()
	c.iterDone.Broadcast()
	c.cc.Logger.Printf("cluster: cancelled, every node killed")
	return c.Shutdown()
}

// killNode executes one scheduled death: node d handed over every
// iteration below at. blocksDropped are the dead node's own blocks for
// the triggering iteration — the mid-iteration loss. Repeat calls
// (every later iteration of the dead node) only account further
// dropped blocks.
func (c *Cluster) killNode(d, at, blocksDropped int) {
	c.mu.Lock()
	c.stats.BlocksLost += blocksDropped
	edges, ok := c.kill(d, at)
	c.mu.Unlock()
	if ok {
		c.iterDone.Broadcast()
		c.cc.Logger.Printf("cluster: node %d failed, %d edges re-routed", d, edges)
	}
}

// kill records node d's death in the core, which re-routes every epoch
// and hands the corpse's pending merges to their drain targets in this
// critical section; every survivor then re-checks completion
// (requirements shrink for iterations >= at). It returns the re-routed
// edge count, ok=false when d was already dead. Callers hold c.mu.
func (c *Cluster) kill(d, at int) (edges int, ok bool) {
	moved, drained, ok := c.agg.Die(d, at)
	if !ok {
		return 0, false
	}
	c.stats.NodesFailed++
	c.stats.ReroutedEdges += len(moved)
	if c.cc.Broker != nil {
		// A dead root must not strand a write token for the rest of the
		// run: free what it holds, cancel what it queued for. The count
		// accumulates locally — on a shared broker, the global
		// HolderReleases tally mixes in other tenants' reclaims.
		c.stats.TokensReclaimed += c.cc.Broker.ReleaseHolder(c.holderBase + d)
	}
	c.route(drained)
	for _, a := range c.aggs {
		a.wake(false)
	}
	// Iterations waiting on the dead root's store may be complete now.
	for it := range c.doneRoots {
		c.checkIterComplete(it)
	}
	return len(moved), true
}

// deliver hands a batch to the core at node to (relayed on when to is
// dead) and wakes the aggregator it lands at; a batch with nowhere to
// land is lost. Callers hold c.mu.
func (c *Cluster) deliver(to int, b *Batch, covers []int) {
	at, ok := c.agg.Deliver(to, b.Iteration, b, covers)
	if !ok {
		c.lose(b)
		return
	}
	c.aggs[at].wake(false)
}

// lose accounts a batch that will never reach a root object and
// recycles its buffers. Callers hold c.mu.
func (c *Cluster) lose(b *Batch) {
	c.stats.BlocksLost += len(b.Blocks)
	b.ReleaseBuffers()
}

// route acts on merges the core released: forwards are delivered at
// once, losses accounted, and stores returned for the root to write
// outside the lock. Callers hold c.mu.
func (c *Cluster) route(emits []Emit[*Batch]) (stores []Emit[*Batch]) {
	for _, e := range emits {
		switch e.Kind {
		case EmitForward:
			c.stats.BatchesForwarded++
			c.stats.BytesForwarded += int64(e.Payload.Bytes())
			c.deliver(e.To, e.Payload, e.Covers)
		case EmitStore:
			stores = append(stores, e)
		default:
			c.lose(e.Payload)
		}
	}
	return stores
}

// noteRootStored records one root having stored an iteration. Callers
// hold c.mu.
func (c *Cluster) noteRootStored(it int) {
	c.doneRoots[it]++
	c.checkIterComplete(it)
}

// checkIterComplete marks an iteration completed once every live root
// of the iteration's epoch has stored it. A forest with no live roots
// left completes nothing — WaitIteration observes that state directly
// instead. Callers hold c.mu.
func (c *Cluster) checkIterComplete(it int) {
	roots := len(c.agg.Roots(it))
	if roots > 0 && !c.completed[it] && c.doneRoots[it] >= roots {
		c.completed[it] = true
		c.stats.IterationsCompleted++
	}
}

// forwarder is the per-node plugin that snapshots a completed
// iteration out of shared memory and hands it to the aggregation
// layer. It runs on the dedicated core, before the node frees the
// iteration's blocks. It is also the failure injection point: a node
// scheduled to die at iteration k drops everything from k on.
type forwarder struct{ agg *aggregator }

// Name implements core.Plugin.
func (f *forwarder) Name() string { return "cluster-forward" }

// OnEvent implements core.Plugin.
func (f *forwarder) OnEvent(ctx *core.PluginContext, ev core.Event) error {
	c := f.agg.c
	refs := ctx.Index.Iteration(ev.Iteration)
	if at, ok := c.spec.Failures.At(f.agg.node); ok && ev.Iteration >= at {
		c.killNode(f.agg.node, ev.Iteration, len(refs))
		return nil
	}
	b := &Batch{Iteration: ev.Iteration}
	for _, ref := range refs {
		b.Blocks = append(b.Blocks, Block{
			Node:     ctx.NodeID,
			Source:   ref.Key.Source,
			Variable: ref.Key.Variable,
			// The node frees the shared-memory block right after the
			// plugins return; the copy decouples aggregation from it.
			// The snapshot buffer comes from the pool and is recycled
			// once the batch reaches a root object (or is dropped).
			Data: buf.Clone(ctx.BlockBytes(ref)),
		})
	}
	c.mu.Lock()
	c.deliver(f.agg.node, b, []int{f.agg.node})
	c.mu.Unlock()
	return nil
}

// aggregator is one node's driver goroutine: woken whenever the core
// may hold something for its node, it forwards the merges the core
// completed and writes the ones it must store as a root. When its own
// stream and every child's have ended it flushes what is left.
type aggregator struct {
	c    *Cluster
	node int

	// mboxMu guards the wake-up flags alone, so waking different nodes
	// never contends on c.mu. Acquired after c.mu when both are needed.
	mboxMu sync.Mutex
	avail  *sync.Cond // on mboxMu
	woken  bool       // something may have changed since the last poll
	eof    bool       // the node's own producer stream ended

	// written is goroutine-local (only touched by run()): iterations
	// whose object actually landed, for retention.
	written map[int]bool
}

// wake asks the aggregator to poll the core again; eof additionally
// marks its node's producer stream ended. Safe with or without c.mu.
func (a *aggregator) wake(eof bool) {
	a.mboxMu.Lock()
	a.woken = true
	a.eof = a.eof || eof
	a.mboxMu.Unlock()
	a.avail.Signal()
}

// wait blocks until woken and reports whether the stream has ended.
func (a *aggregator) wait() (eof bool) {
	a.mboxMu.Lock()
	for !a.woken {
		a.avail.Wait()
	}
	a.woken = false
	eof = a.eof
	a.mboxMu.Unlock()
	return eof
}

func (a *aggregator) run() {
	c := a.c
	for done := false; !done; {
		eof := a.wait()
		c.mu.Lock()
		stores := c.route(c.agg.Poll(a.node))
		// Every producer is done — the node's own stream and every child
		// in any epoch — so flush incomplete iterations upward rather
		// than losing them silently (partial data beats no data — the
		// same trade the §V.C skip policy makes).
		if done = eof && a.childrenClosed(); done {
			stores = append(stores, c.route(c.agg.Flush(a.node))...)
			for _, parent := range c.agg.Parents(a.node) {
				c.aggs[parent].wake(false)
			}
		}
		c.mu.Unlock()
		for _, e := range stores {
			a.store(e)
		}
	}
	c.wg.Done()
}

// childrenClosed reports whether every node that may still forward to
// this one — its live children in any epoch — has flushed. A dead node
// waits for nobody: its children were re-routed away. Callers hold
// c.mu.
func (a *aggregator) childrenClosed() bool {
	c := a.c
	if c.agg.Dead(a.node) {
		return true
	}
	for _, k := range c.agg.Children(a.node) {
		if !c.agg.Closed(k) {
			return false
		}
	}
	return true
}

// store writes a merge the core released at this root.
func (a *aggregator) store(e Emit[*Batch]) {
	c := a.c
	b, covers, partial := e.Payload, e.Covers, e.Partial
	// Cluster-wide write scheduling: claim this root's target window
	// before touching the store, earliest iteration first, so roots of
	// different trees — this tenant's or another's — never hit the same
	// target at once. The request carries the tenant identity the
	// shared broker arbitrates and accounts by.
	if c.cc.Broker != nil {
		deadline := float64(b.Iteration)
		if c.spec.Deadline > 0 {
			deadline += c.spec.Deadline
		}
		grant := c.cc.Broker.Acquire(storage.TokenRequest{
			Holder:   c.holderBase + a.node,
			Tenant:   c.tenant,
			Priority: c.spec.Priority,
			Weight:   c.spec.Weight,
			Targets:  c.rootTargets(a.node, b.Iteration),
			Deadline: deadline,
			Bytes:    float64(b.Bytes()),
		})
		if grant.Denied {
			// Killed while queued for the token: the write never starts;
			// the batch relays to the corpse's drain target instead.
			c.mu.Lock()
			c.deliver(a.node, b, covers)
			c.mu.Unlock()
			return
		}
		defer grant.Release()
	}

	// Root: normalize so hooks and the stored object agree on block
	// order, run the cluster-wide hooks on the merged subtree, then the
	// batch becomes one large sequential object on the backend. The
	// write is scatter-gather: only the small framing headers are newly
	// built, payload segments alias the batch's pooled buffers, and the
	// backend gathers (or discards) them in its own single copy.
	b.normalize()
	for _, h := range c.spec.Hooks {
		if err := h.OnIteration(b.Iteration, b); err != nil {
			c.fail(fmt.Errorf("hook %q on iteration %d: %w", h.Name(), b.Iteration, err))
		}
	}
	segs := EncodeBatchVec(b)
	objLen := storage.SegsLen(segs)

	// Byte-quota enforcement: a tenant whose next object would cross
	// its MaxBytes budget skips the write — the §V.C skip policy applied
	// to budget instead of time. The iteration still completes (waiters
	// must not hang on an over-budget tenant); the loss is visible in
	// QuotaDroppedObjects, BlocksLost and Completeness.
	if max := c.spec.Quota.MaxBytes; max > 0 {
		c.mu.Lock()
		over := c.stats.ObjectBytes+int64(objLen) > max
		if over {
			c.stats.QuotaDroppedObjects++
			c.stats.BlocksLost += len(b.Blocks)
			c.noteRootStored(b.Iteration)
		}
		c.mu.Unlock()
		if over {
			c.iterDone.Broadcast()
			b.ReleaseBuffers()
			return
		}
	}

	name := c.objectName(a.node, b.Iteration)
	err := storage.PutVec(c.cc.Store, name, segs)
	var manifestStored bool
	if err == nil && !c.cc.DisableManifests {
		// The manifest rides along with the data: a small index object
		// Restore navigates by without touching any payload. A failed
		// manifest Put degrades the run to unreplayable, not broken —
		// the data object is already durable.
		m := newManifest(c.spec.JobName, a.node, name, b, covers, partial)
		if ci, ok := c.cc.Store.(storage.ObjectCodecInfoer); ok {
			// A compressing store knows how it just encoded the data
			// object; the manifest records codec and sizes so a restart
			// can see the compression story without fetching payloads.
			if info, known := ci.ObjectCodec(name); known {
				m.Codec = info.Codec
				m.RawBytes = info.RawBytes
				m.EncodedBytes = info.EncodedBytes
			}
		}
		if chi, ok := c.cc.Store.(storage.ObjectChunkInfoer); ok {
			// A dedup store knows the object's content-addressed chunk
			// set; the manifest (v2) records it, so a restart can walk
			// the whole chunk dependency graph from manifests alone.
			if info, known := chi.ObjectChunks(name); known {
				m.setChunks(info)
			}
		}
		if merr := c.cc.Store.Put(m.Name(), EncodeManifest(m)); merr != nil {
			c.fail(fmt.Errorf("storing manifest %s: %w", m.Name(), merr))
		} else {
			manifestStored = true
		}
	}
	// The store (and the manifest, which reads only block metadata) is
	// done with the payloads; the pooled buffers go back for the next
	// iteration's snapshots.
	b.ReleaseBuffers()
	c.mu.Lock()
	if err == nil {
		// Coverage and partial accounting describe *stored* objects; a
		// failed Put stored nothing, so the loss shows in Completeness.
		c.stats.ObjectsWritten++
		c.stats.ObjectBytes += int64(objLen)
		if manifestStored {
			c.stats.ManifestsWritten++
		}
		c.covered[b.Iteration] += len(covers)
		if partial {
			c.partials[b.Iteration] = true
			c.stats.PartialIterations = len(c.partials)
		}
	}
	// Completion tracking is liveness, not accuracy: the root is done
	// with this iteration either way, and waiters must not hang on a
	// store error (the error itself surfaces through Errors/Shutdown).
	c.noteRootStored(b.Iteration)
	c.mu.Unlock()
	c.iterDone.Broadcast()
	if err == nil {
		a.releaseAged(b.Iteration)
	}
	if err != nil {
		c.fail(fmt.Errorf("storing %s: %w", name, err))
	}
}

// releaseAged applies the retention window after this root stored
// iteration it: the root's object and manifest for iteration it-Retain
// drop their store reference, making them collectable by the store's
// next GC sweep. Only objects this root actually wrote are released
// (quota-dropped iterations stored nothing), and eviction/cancel paths
// never call this — so every object inside any tenant's window keeps
// its reference, and a sweep can never break a retained restore.
// written is goroutine-local to this aggregator's run().
func (a *aggregator) releaseAged(it int) {
	c := a.c
	ret := c.spec.Retain
	if ret <= 0 {
		return
	}
	rt, ok := c.cc.Store.(storage.Retainer)
	if !ok {
		return
	}
	a.written[it] = true
	old := it - ret
	if !a.written[old] {
		return
	}
	delete(a.written, old)
	released := 0
	oldName := c.objectName(a.node, old)
	if rt.Release(oldName) == nil {
		released++
	}
	if !c.cc.DisableManifests {
		if rt.Release(oldName+ManifestSuffix) == nil {
			released++
		}
	}
	if released > 0 {
		c.mu.Lock()
		c.stats.ObjectsReleased += released
		c.mu.Unlock()
	}
}
