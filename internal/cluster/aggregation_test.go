package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// blockID names one node's output for one iteration.
type blockID struct{ node, it int }

// inFlight is a forward (or drained merge) travelling toward a node.
type inFlight struct {
	to, it int
	blocks []blockID
	covers []int
}

// interleaving drives one Aggregation through a seed-chosen order of
// events — produce (a node's own delivery, or its scheduled death),
// poll, in-flight delivery, re-formation, end of stream — the way the
// runtime and DES drivers do, but with every ordering choice made by
// the seed. Forwards travel asynchronously, as on the DES NIC, so a
// death can overtake data already on its way up.
type interleaving struct {
	rng     *rand.Rand
	agg     *Aggregation[[]blockID]
	nodes   int
	iters   int
	next    []int // node → next iteration it produces
	dieAt   map[int]int
	reforms int
	flight  []inFlight
	stored  map[blockID]int
	stores  map[[2]int]bool // (root, iteration) stored
	trace   strings.Builder
}

func newInterleaving(seed int64) *interleaving {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(11)
	s := &interleaving{
		rng:     rng,
		nodes:   n,
		iters:   1 + rng.Intn(5),
		next:    make([]int, n),
		dieAt:   map[int]int{},
		reforms: rng.Intn(3),
		stored:  map[blockID]int{},
		stores:  map[[2]int]bool{},
	}
	s.agg = NewAggregation(n, 2+rng.Intn(3), 1+rng.Intn(3),
		func(into, from []blockID) []blockID { return append(into, from...) })
	for d := rng.Intn(n); d > 0; d-- {
		s.dieAt[rng.Intn(n)] = rng.Intn(s.iters)
	}
	return s
}

func (s *interleaving) logf(format string, args ...any) {
	fmt.Fprintf(&s.trace, format, args...)
	s.trace.WriteByte(';')
}

// orphaning reports whether killing n now would strand data with no
// drain target — a root without live children in some epoch. Such a
// death loses data by definition, so the scheduler skips it and the
// property stays "stored exactly once".
func (s *interleaving) orphaning(n int) bool {
	for i := range s.agg.epochs {
		t := &s.agg.epochs[i].tree
		if t.IsRoot(n) && t.IsLeaf(n) {
			return true
		}
	}
	return false
}

func (s *interleaving) apply(emits []Emit[[]blockID]) error {
	for _, e := range emits {
		switch e.Kind {
		case EmitForward:
			s.flight = append(s.flight, inFlight{e.To, e.It, e.Payload, e.Covers})
		case EmitStore:
			key := [2]int{e.Node, e.It}
			if s.stores[key] {
				return fmt.Errorf("root %d stored iteration %d twice", e.Node, e.It)
			}
			s.stores[key] = true
			for _, b := range e.Payload {
				s.stored[b]++
			}
		default:
			return fmt.Errorf("node %d dropped iteration %d covering %v", e.Node, e.It, e.Covers)
		}
	}
	return nil
}

// step runs one seed-chosen enabled event; it reports false once every
// node's stream has ended.
func (s *interleaving) step() (bool, error) {
	type event struct {
		kind string
		arg  int
	}
	var evs []event
	// lowerDone: every node below n stopped producing. Like the runtime,
	// which ends node streams in id order, a stream ends only after
	// every death that could drain into it (parents have lower ids).
	lowerDone := true
	for n := 0; n < s.nodes; n++ {
		done := s.agg.Dead(n) || s.next[n] == s.iters
		if s.agg.Closed(n) {
			lowerDone = lowerDone && done
			continue
		}
		if !done {
			evs = append(evs, event{"produce", n})
		}
		evs = append(evs, event{"poll", n})
		// End of stream: the node's own output is done and nothing can
		// still reach it — its children (any epoch) ended, nothing is on
		// the wire.
		if done && lowerDone && len(s.flight) == 0 {
			closed := true
			for _, k := range s.agg.Children(n) {
				closed = closed && s.agg.Closed(k)
			}
			if closed {
				evs = append(evs, event{"eof", n})
			}
		}
		lowerDone = lowerDone && done
	}
	for i := range s.flight {
		evs = append(evs, event{"deliver", i})
	}
	if s.reforms > 0 {
		evs = append(evs, event{"reform", 0})
	}
	if len(evs) == 0 {
		return false, nil
	}
	ev := evs[s.rng.Intn(len(evs))]
	switch ev.kind {
	case "produce":
		n, it := ev.arg, s.next[ev.arg]
		if k, ok := s.dieAt[n]; ok && it >= k && !s.orphaning(n) {
			_, drained, _ := s.agg.Die(n, it)
			s.logf("die %d@%d", n, it)
			return true, s.apply(drained)
		}
		s.next[n]++
		s.logf("produce %d/%d", n, it)
		if _, ok := s.agg.Deliver(n, it, []blockID{{n, it}}, []int{n}); !ok {
			return false, fmt.Errorf("node %d's own iteration %d found no live node", n, it)
		}
	case "poll":
		s.logf("poll %d", ev.arg)
		return true, s.apply(s.agg.Poll(ev.arg))
	case "deliver":
		m := s.flight[ev.arg]
		s.flight = append(s.flight[:ev.arg], s.flight[ev.arg+1:]...)
		s.logf("deliver %d/%d", m.to, m.it)
		if _, ok := s.agg.Deliver(m.to, m.it, m.blocks, m.covers); !ok {
			return false, fmt.Errorf("delivery to %d of iteration %d covering %v lost", m.to, m.it, m.covers)
		}
	case "reform":
		s.reforms--
		from, err := s.agg.Reform(2+s.rng.Intn(3), 1+s.rng.Intn(3))
		s.logf("reform@%d %v", from, err)
	case "eof":
		s.logf("eof %d", ev.arg)
		return true, s.apply(s.agg.Flush(ev.arg))
	}
	return true, nil
}

// run plays the scenario to the end and checks the death contract:
// every block a live node wrote, and every block a dead node wrote
// before its death iteration, is stored exactly once.
func (s *interleaving) run() error {
	for steps := 0; ; steps++ {
		if steps > 100000 {
			return fmt.Errorf("no progress after %d steps", steps)
		}
		more, err := s.step()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	var bad []string
	for n := 0; n < s.nodes; n++ {
		for it := 0; it < s.next[n]; it++ {
			if c := s.stored[blockID{n, it}]; c != 1 {
				bad = append(bad, fmt.Sprintf("block %d/%d stored %d times", n, it, c))
			}
		}
	}
	for b, c := range s.stored {
		if b.it >= s.next[b.node] {
			bad = append(bad, fmt.Sprintf("block %d/%d stored %d times but never produced", b.node, b.it, c))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// TestAggregationInterleavings checks the aggregation core's death
// contract over thousands of seed-chosen interleavings of deliveries,
// deaths, re-formations and end-of-stream flushes. A failing seed
// replays exactly: the test re-runs it and requires the same event
// trace and the same failure.
func TestAggregationInterleavings(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 500
	}
	start := time.Now()
	deaths := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := newInterleaving(seed)
		err := s.run()
		deaths += strings.Count(s.trace.String(), "die ")
		if err == nil && seed%100 != 0 {
			continue
		}
		again := newInterleaving(seed)
		err2 := again.run()
		if again.trace.String() != s.trace.String() || fmt.Sprint(err2) != fmt.Sprint(err) {
			t.Fatalf("seed %d does not replay: %v vs %v", seed, err, err2)
		}
		if err == nil {
			continue
		}
		t.Fatalf("seed %d (%d nodes, %d iterations): %v\ntrace: %s",
			seed, s.nodes, s.iters, err, s.trace.String())
	}
	if deaths < seeds/4 {
		t.Fatalf("only %d deaths over %d seeds: the schedule barely exercises failures", deaths, seeds)
	}
	t.Logf("%d interleavings, %d deaths, %v", seeds, deaths, time.Since(start))
}
