package cluster

import (
	"fmt"
	"sort"
)

// Aggregation is the aggregation state machine both faces drive: the
// goroutine runtime (Cluster, with *Batch payloads) and the
// discrete-event model in internal/iostrat (with float64 byte volumes).
// It knows no clock, goroutine or I/O. It owns
//
//   - the append-only topology epochs and the routing fence Reform
//     re-forms past;
//   - the failure overlay, applied to every epoch, with a promoted root
//     inheriting the dead root's ordinal (its storage window);
//   - one pending merge per (node, iteration): a coverage set of origin
//     nodes plus the merged payload;
//   - the completion, relay, drain and end-of-stream flush rules.
//
// Drivers feed it events — Deliver, Die, Reform, Flush — and poll it
// (Poll) for the merges a node may release. What they get back are
// emits: forward the merge to a parent, store it at a root, or count it
// lost. Delivering a forward, and what it costs, is the driver's
// business: the runtime merges it at once under its lock, the DES after
// the NIC transfer time.
//
// # Death contract
//
// Die(n, k) records that node n handed over its own output for every
// iteration below k and nothing from k on. A death therefore shrinks
// coverage requirements only for iterations >= k. For an earlier
// iteration the dead node's data still exists — merged at an ancestor,
// pending at the corpse, or on its way up — and it is still awaited
// wherever it drains: Die hands the corpse's pending merges to their
// drain targets, and a delivery addressed to a dead node relays to its
// drain target. No survivor can complete an iteration early and leave
// the dead node's share to arrive as a straggler.
//
// Not safe for concurrent use: the runtime guards it with Cluster.mu,
// the DES runs it on its single event thread.
type Aggregation[P any] struct {
	nodes  int
	merge  func(into, from P) P
	epochs []aggEpoch
	// fence is the highest iteration delivered anywhere. No merge is
	// pending past it, so Reform routes from fence+1 without ever moving
	// an iteration some node already merged.
	fence   int
	diedAt  map[int]int // dead node → first iteration it did not hand over
	dead    []int       // death order; every new epoch replays it
	pending []map[int]*pendingMerge[P]
	stored  []map[int]bool // root → iterations it emitted as EmitStore
	closed  []bool         // node → stream ended (Flush)
	// live memoizes LiveSubtree per (epoch index, node); deaths clear it.
	live map[[2]int][]int
}

// aggEpoch binds one topology to the iterations it routes: from from
// until the next epoch's from.
type aggEpoch struct {
	from     int
	fanout   int
	roots    int // requested root count, before failure overlays
	tree     Tree
	ordinal  map[int]int // live root → storage-window ordinal
	numRoots int         // live roots when the epoch was formed
}

type pendingMerge[P any] struct {
	payload P
	covered map[int]bool
}

// EmitKind says what a driver must do with an Emit.
type EmitKind int

const (
	// EmitForward sends the merge to node To, the parent in the
	// iteration's epoch (or, for a corpse's drained merge, its drain
	// target).
	EmitForward EmitKind = iota
	// EmitStore writes the merge at root Node.
	EmitStore
	// EmitLost drops the merge: a straggler for an iteration its root
	// already stored, or a dead node's merge with no drain target.
	EmitLost
)

// Emit is one merge leaving a node.
type Emit[P any] struct {
	Kind    EmitKind
	Node    int
	To      int // EmitForward destination
	It      int
	Payload P
	Covers  []int // origin nodes, ascending
	Partial bool  // flushed at end of stream without full coverage
}

// NewAggregation starts the state machine on NewTree(nodes, fanout,
// roots). merge folds one payload into another of the same iteration.
func NewAggregation[P any](nodes, fanout, roots int, merge func(into, from P) P) *Aggregation[P] {
	a := &Aggregation[P]{
		nodes:   nodes,
		merge:   merge,
		fence:   -1,
		diedAt:  map[int]int{},
		pending: make([]map[int]*pendingMerge[P], nodes),
		stored:  make([]map[int]bool, nodes),
		closed:  make([]bool, nodes),
	}
	for i := range a.pending {
		a.pending[i] = map[int]*pendingMerge[P]{}
		a.stored[i] = map[int]bool{}
	}
	a.epochs = []aggEpoch{a.newEpoch(0, fanout, roots)}
	return a
}

// newEpoch builds a topology with every death so far re-applied, its
// live roots numbered ascending.
func (a *Aggregation[P]) newEpoch(from, fanout, roots int) aggEpoch {
	t := NewTree(a.nodes, fanout, roots)
	for _, d := range a.dead {
		t.Fail(d)
	}
	rs := t.Roots()
	ord := make(map[int]int, len(rs))
	for i, r := range rs {
		ord[r] = i
	}
	return aggEpoch{from: from, fanout: fanout, roots: roots, tree: t, ordinal: ord, numRoots: len(rs)}
}

func (a *Aggregation[P]) epochIndex(it int) int {
	for i := len(a.epochs) - 1; i > 0; i-- {
		if a.epochs[i].from <= it {
			return i
		}
	}
	return 0
}

func (a *Aggregation[P]) epochFor(it int) *aggEpoch { return &a.epochs[a.epochIndex(it)] }

// Dead reports whether node n has died.
func (a *Aggregation[P]) Dead(n int) bool {
	_, d := a.diedAt[n]
	return d
}

// Closed reports whether node n's stream has ended (Flush ran).
func (a *Aggregation[P]) Closed(n int) bool { return a.closed[n] }

// Deliver merges payload p, covering the given origin nodes, into the
// pending merge of iteration it at node to. A delivery addressed to a
// dead node relays to its drain target in the iteration's epoch,
// chased through later deaths. It returns the node the data landed at;
// ok=false means there was none (no drain target, or the landing node's
// stream already ended) and the payload is lost — the caller's to
// account and release.
func (a *Aggregation[P]) Deliver(to, it int, p P, covers []int) (at int, ok bool) {
	if it > a.fence {
		a.fence = it
	}
	if a.Dead(to) {
		if to, ok = a.epochFor(it).tree.DrainTarget(to); !ok {
			return 0, false
		}
	}
	if a.closed[to] {
		return 0, false
	}
	pm := a.pending[to][it]
	if pm == nil {
		pm = &pendingMerge[P]{payload: p, covered: make(map[int]bool, len(covers))}
		a.pending[to][it] = pm
	} else {
		pm.payload = a.merge(pm.payload, p)
	}
	for _, n := range covers {
		pm.covered[n] = true
	}
	return to, true
}

// Poll releases every pending merge at live node n whose coverage is
// complete, ascending by iteration, each routed by its epoch.
func (a *Aggregation[P]) Poll(n int) []Emit[P] {
	if a.Dead(n) || len(a.pending[n]) == 0 {
		return nil
	}
	var ready []int
	for it, pm := range a.pending[n] {
		if a.complete(n, it, pm.covered) {
			ready = append(ready, it)
		}
	}
	sort.Ints(ready)
	out := make([]Emit[P], 0, len(ready))
	for _, it := range ready {
		out = append(out, a.release(n, it, false))
	}
	return out
}

// Flush ends node n's stream: every pending merge leaves at once,
// ascending — partial from a live node, lost from a dead one (orphans
// no drain target took). Later deliveries landing at n are lost.
func (a *Aggregation[P]) Flush(n int) []Emit[P] {
	a.closed[n] = true
	var out []Emit[P]
	for _, it := range a.pendingIts(n) {
		out = append(out, a.release(n, it, true))
	}
	return out
}

// pendingIts returns the iterations pending at n, ascending.
func (a *Aggregation[P]) pendingIts(n int) []int {
	its := make([]int, 0, len(a.pending[n]))
	for it := range a.pending[n] {
		its = append(its, it)
	}
	sort.Ints(its)
	return its
}

// complete is the completion rule: the merge covers n's live subtree in
// the iteration's epoch, plus every dead node that still owes this
// iteration (died after it) and drains into that subtree.
func (a *Aggregation[P]) complete(n, it int, covered map[int]bool) bool {
	ei := a.epochIndex(it)
	key := [2]int{ei, n}
	live, ok := a.live[key]
	if !ok {
		live = a.epochs[ei].tree.LiveSubtree(n)
		if a.live == nil {
			a.live = map[[2]int][]int{}
		}
		a.live[key] = live
	}
	if !CoversAll(covered, live) {
		return false
	}
	t := &a.epochs[ei].tree
	for _, d := range a.dead {
		if covered[d] || a.diedAt[d] <= it {
			continue
		}
		if dest, ok := t.DrainTarget(d); ok && t.inSubtree(dest, n) {
			return false
		}
	}
	return true
}

// release takes iteration it's merge out of n and routes it: forward to
// the epoch's parent, store at a root (once per iteration), lost
// otherwise.
func (a *Aggregation[P]) release(n, it int, partial bool) Emit[P] {
	pm := a.pending[n][it]
	delete(a.pending[n], it)
	e := Emit[P]{Kind: EmitLost, Node: n, It: it, Payload: pm.payload,
		Covers: sortedCovers(pm.covered), Partial: partial}
	switch parent, ok := a.epochFor(it).tree.Parent(n); {
	case a.Dead(n):
	case ok:
		e.Kind, e.To = EmitForward, parent
	case !a.stored[n][it]:
		a.stored[n][it] = true
		e.Kind = EmitStore
	}
	return e
}

// Die records node n's death having handed over every iteration below
// at (see the death contract). The node fails in every epoch. It
// returns the moved edges of the epoch routing iteration at, and n's
// pending merges as forwards to their drain targets; merges with none
// stay behind as orphans until Flush. ok=false when n was already dead.
func (a *Aggregation[P]) Die(n, at int) (edges []RerouteEdge, drained []Emit[P], ok bool) {
	if a.Dead(n) {
		return nil, nil, false
	}
	a.diedAt[n] = at
	a.dead = append(a.dead, n)
	a.live = nil
	routing := a.epochFor(at)
	for i := range a.epochs {
		ep := &a.epochs[i]
		wasRoot := ep.tree.IsRoot(n)
		moved := ep.tree.Fail(n)
		if ep == routing {
			edges = moved
		}
		for _, e := range moved {
			if wasRoot && e.NewParent == -1 {
				ep.ordinal[e.Child] = ep.ordinal[n] // promotion inherits the window
			}
		}
	}
	for _, it := range a.pendingIts(n) {
		dest, drains := a.epochFor(it).tree.DrainTarget(n)
		if !drains {
			continue
		}
		pm := a.pending[n][it]
		delete(a.pending[n], it)
		drained = append(drained, Emit[P]{Kind: EmitForward, Node: n, To: dest, It: it,
			Payload: pm.payload, Covers: sortedCovers(pm.covered)})
	}
	return edges, drained, true
}

// Reform opens a topology epoch with the given shape at the fence and
// returns its first iteration: every iteration already delivered keeps
// its epoch end to end, so no pending merge changes requirement or
// route. Dead nodes stay dead in the new epoch. An epoch that never
// routed anything is replaced in place rather than stacked.
func (a *Aggregation[P]) Reform(fanout, roots int) (from int, err error) {
	if fanout < 2 {
		return 0, fmt.Errorf("cluster: Reform fanout %d < 2", fanout)
	}
	if roots < 1 {
		return 0, fmt.Errorf("cluster: Reform roots %d < 1", roots)
	}
	ep := a.newEpoch(a.fence+1, fanout, roots)
	if ep.numRoots == 0 {
		return 0, fmt.Errorf("cluster: Reform with every node dead")
	}
	last := &a.epochs[len(a.epochs)-1]
	if last.from >= ep.from {
		ep.from = last.from
		*last = ep
	} else {
		a.epochs = append(a.epochs, ep)
	}
	a.live = nil
	return ep.from, nil
}

// Epochs returns the number of topology epochs (1 before any Reform).
func (a *Aggregation[P]) Epochs() int { return len(a.epochs) }

// Shape returns the current epoch's fanout and requested root count.
func (a *Aggregation[P]) Shape() (fanout, roots int) {
	ep := &a.epochs[len(a.epochs)-1]
	return ep.fanout, ep.roots
}

// Tree returns a copy of the current epoch's topology, failure overlay
// included.
func (a *Aggregation[P]) Tree() Tree { return a.epochs[len(a.epochs)-1].tree.Clone() }

// Roots returns the live roots routing iteration it.
func (a *Aggregation[P]) Roots(it int) []int { return a.epochFor(it).tree.Roots() }

// RootOrdinal returns root n's storage-window ordinal for iteration it:
// its rank among the epoch's roots, inherited through promotions.
func (a *Aggregation[P]) RootOrdinal(n, it int) int { return a.epochFor(it).ordinal[n] }

// NumRoots returns how many root ordinals iteration it's epoch has.
func (a *Aggregation[P]) NumRoots(it int) int { return a.epochFor(it).numRoots }

// Parents returns n's distinct parents across all epochs, ascending:
// every node that may still await n's merges.
func (a *Aggregation[P]) Parents(n int) []int {
	seen := map[int]bool{}
	for i := range a.epochs {
		if p, ok := a.epochs[i].tree.Parent(n); ok {
			seen[p] = true
		}
	}
	return sortedCovers(seen)
}

// Children returns n's distinct live children across all epochs,
// ascending: every node that may still forward to n. The union stays
// acyclic because every tree keeps parent id < child id.
func (a *Aggregation[P]) Children(n int) []int {
	seen := map[int]bool{}
	for i := range a.epochs {
		for _, k := range a.epochs[i].tree.Children(n) {
			seen[k] = true
		}
	}
	return sortedCovers(seen)
}

func sortedCovers(covered map[int]bool) []int {
	covers := make([]int, 0, len(covered))
	for n := range covered {
		covers = append(covers, n)
	}
	sort.Ints(covers)
	return covers
}
