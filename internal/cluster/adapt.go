package cluster

// Reform re-forms the aggregation forest mid-run with a new fanout and
// root count, returning the first iteration the new topology routes.
// Every iteration already delivered to any node keeps flowing through
// its original epoch — parent edges, coverage requirements, root sets
// and broker windows included — so no pending merge is stranded or
// double-stored; acknowledged data is never lost to a re-formation.
// Nodes already killed by the failure schedule stay dead in the new
// epoch. Safe to call concurrently with client writes; it composes
// with failure re-routing and streaming hooks (the stream hub's
// sequence numbers are cluster-wide and simply continue).
func (c *Cluster) Reform(fanout, roots int) (fromIter int, err error) {
	c.mu.Lock()
	fromIter, err = c.agg.Reform(fanout, roots)
	if err == nil {
		c.stats.TreeReforms++
	}
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	c.cc.Logger.Printf("cluster: re-formed tree from iteration %d (fanout %d, %d roots)",
		fromIter, fanout, roots)
	return fromIter, nil
}

// Epochs reports how many topology epochs the run has accumulated
// (1 before any Reform).
func (c *Cluster) Epochs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.Epochs()
}

// RecommendTopology picks an aggregation forest shape — fanout and
// root count — from observed bandwidths: nodeBytes is one node's
// output per iteration, nicBW the observed per-hop interconnect
// bandwidth, streamBW the observed bandwidth of one root's PFS stripe
// stream, and targets the number of storage targets (OSTs). It
// balances the two costs the dedicated-core design trades between:
//
//   - store-and-forward volume up the tree — a slow NIC wants a
//     flatter forest (more roots, smaller subtrees);
//   - stream concurrency on the file system — a slow or contended PFS
//     wants fewer, larger sequential streams per the paper's §IV.
//
// The model prices what the DES charges (serialization per hop,
// StripeWindow targets per root, sequential-efficiency loss once
// streams share a target) closely enough to rank candidates; the
// experiment E11 checks the ranking against the simulated outcome.
func RecommendTopology(nodes int, nodeBytes, nicBW, streamBW float64, targets int) (fanout, roots int) {
	if nodes <= 1 {
		return 2, 1
	}
	if nicBW <= 0 {
		nicBW = 1
	}
	if streamBW <= 0 {
		streamBW = 1
	}
	if targets < 1 {
		targets = 1
	}
	best := -1.0
	fanout, roots = 2, 1
	for r := 1; r <= nodes; r *= 2 {
		sub := (nodes + r - 1) / r
		stripes := StripeWindow(targets, r)
		// Per-root write time: the subtree's bytes over the root's
		// stripe window, derated once the forest's streams outnumber
		// the targets (sequential efficiency loss per shared OST).
		streams := r * stripes
		eff := 1.0
		if streams > targets {
			perOST := float64(streams) / float64(targets)
			eff = 1 / perOST / (1 + 0.3*(perOST-1))
		}
		pfsT := float64(sub) * nodeBytes / (float64(stripes) * streamBW * eff)
		for _, f := range []int{2, 3, 4, 8} {
			if f >= sub && f > 2 {
				break
			}
			total := aggChainTime(sub, f, nodeBytes, nicBW) + pfsT
			if best < 0 || total < best {
				best = total
				fanout, roots = f, r
			}
		}
	}
	return fanout, roots
}

// aggChainTime is the critical-path store-and-forward time for one
// subtree of s nodes with the given fanout: each level serializes its
// subtree's bytes over one NIC before the level above can forward.
func aggChainTime(s, fanout int, nodeBytes, nicBW float64) float64 {
	t := 0.0
	for s > 1 {
		child := (s - 1 + fanout - 1) / fanout
		t += float64(child) * nodeBytes / nicBW
		s = child
	}
	return t
}

// StripeWindow is how many storage targets each of roots root streams
// is striped over: wide enough that the few root streams can saturate
// the target array while staying "few large streams" — the targets
// divided across the roots, clamped to [8, 64] and to the target count
// itself. The DES write and restart-read paths and RecommendTopology
// all size windows with it.
func StripeWindow(targets, roots int) int {
	s := targets / (2 * roots)
	if s < 8 {
		s = 8
	}
	if s > 64 {
		s = 64
	}
	if s > targets {
		s = targets
	}
	return s
}
