package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestAdmissionProperties drives the admission core through thousands
// of seed-chosen submit/release/withdraw sequences per policy and
// checks after every event that
//
//   - free nodes plus the nodes of every outstanding grant equal the
//     capacity, and no event grants more than was free;
//   - a submit that fits starts on its full ask at once; one that does
//     not is rejected, degraded or queued exactly as the policy says;
//   - the queue is in FIFO (arrival) or EDF (priority desc, deadline
//     asc with <= 0 as none, arrival) order, and dispatch grants a
//     prefix of it;
//   - the head does not fit what is free (under AdmitDegrade: nothing
//     is free), so no event leaves a startable job queued;
//   - the max-depth and degraded-grant counters match what happened.
//
// A failing seed replays exactly: the test re-runs it and requires the
// same event trace and the same failure.
func TestAdmissionProperties(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	start := time.Now()
	for _, policy := range []AdmissionPolicy{AdmitFIFO, AdmitDeadline, AdmitReject, AdmitDegrade} {
		granted := 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			trace, n, err := admissionRun(policy, seed)
			granted += n
			if err == nil {
				continue
			}
			trace2, _, err2 := admissionRun(policy, seed)
			if trace2 != trace || fmt.Sprint(err2) != fmt.Sprint(err) {
				t.Fatalf("%s seed %d does not replay: %v vs %v", policy, seed, err, err2)
			}
			t.Fatalf("%s seed %d: %v\ntrace: %s", policy, seed, err, trace)
		}
		if granted < seeds {
			t.Fatalf("%s: only %d grants over %d seeds", policy, granted, seeds)
		}
	}
	t.Logf("%d seeds x 4 policies in %v", seeds, time.Since(start))
}

// admJob is the test's record of one submitted job.
type admJob struct {
	need, priority int
	deadline       float64
	arrival        int
}

// admissionRun plays one seeded event sequence and returns its trace,
// the number of grants, and the first property violation.
func admissionRun(policy AdmissionPolicy, seed int64) (string, int, error) {
	rng := rand.New(rand.NewSource(seed))
	capacity := 1 + rng.Intn(8)
	a := NewAdmission[int](policy, capacity)
	var (
		trace    strings.Builder
		jobs     []admJob
		running  = map[int]int{} // job → granted nodes
		grants   int
		degraded int
	)
	fmt.Fprintf(&trace, "cap=%d", capacity)
	// before is the documented queue order, written out independently
	// of the core's.
	before := func(x, y admJob) bool {
		if policy == AdmitDeadline {
			if x.priority != y.priority {
				return x.priority > y.priority
			}
			dx, dy := x.deadline, y.deadline
			if dx <= 0 {
				dx = math.Inf(1)
			}
			if dy <= 0 {
				dy = math.Inf(1)
			}
			if dx != dy {
				return dx < dy
			}
		}
		return x.arrival < y.arrival
	}
	queued := func() []int {
		ids := make([]int, len(a.queue))
		for i, r := range a.queue {
			ids[i] = r.job
		}
		return ids
	}
	record := func(g Grant[int]) {
		running[g.Job] = g.Nodes
		grants++
		if g.Nodes < jobs[g.Job].need {
			degraded++
		}
	}
	// take checks a batch of dispatch grants against the queue as it
	// stood before them and records them as running.
	take := func(gs []Grant[int], queue []int, free int) error {
		for i, g := range gs {
			if i >= len(queue) || g.Job != queue[i] {
				return fmt.Errorf("grant %d to job %d is not queue position %d of %v", i, g.Job, i, queue)
			}
			if g.Nodes < 1 || g.Nodes > free {
				return fmt.Errorf("grant of %d nodes with %d free", g.Nodes, free)
			}
			if g.Nodes < jobs[g.Job].need && policy != AdmitDegrade {
				return fmt.Errorf("job %d granted %d < ask %d under %s", g.Job, g.Nodes, jobs[g.Job].need, policy)
			}
			free -= g.Nodes
			record(g)
		}
		return nil
	}

	events := 20 + rng.Intn(60)
	for ev := 0; ev < events; ev++ {
		free := a.Free()
		switch r := rng.Intn(10); {
		case r < 5: // submit
			j := admJob{need: 1 + rng.Intn(capacity), priority: rng.Intn(3),
				deadline: float64(rng.Intn(4)), arrival: len(jobs)}
			id := len(jobs)
			jobs = append(jobs, j)
			fmt.Fprintf(&trace, " submit(%d:need=%d,p=%d,d=%v)", id, j.need, j.priority, j.deadline)
			gs, q := a.Submit(id, j.need, j.priority, j.deadline)
			wantNodes := 0
			switch {
			case j.need <= free:
				wantNodes = j.need
			case policy == AdmitDegrade:
				wantNodes = free
			}
			switch {
			case wantNodes > 0:
				if q || len(gs) != 1 || gs[0].Job != id || gs[0].Nodes != wantNodes {
					return trace.String(), grants, fmt.Errorf("submit with %d free: grants %v queued %v, want job %d on %d",
						free, gs, q, id, wantNodes)
				}
				record(gs[0])
			case policy == AdmitReject:
				if q || len(gs) != 0 {
					return trace.String(), grants, fmt.Errorf("reject policy queued or granted: %v %v", gs, q)
				}
			default:
				if !q || len(gs) != 0 {
					return trace.String(), grants, fmt.Errorf("oversubscribed submit not queued: %v %v", gs, q)
				}
			}
		case r < 8: // release a running job
			if len(running) == 0 {
				continue
			}
			ids := make([]int, 0, len(running))
			for id := range running {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			id := ids[rng.Intn(len(ids))]
			n := running[id]
			delete(running, id)
			fmt.Fprintf(&trace, " release(%d:%d)", id, n)
			q := queued()
			if err := take(a.Release(n), q, free+n); err != nil {
				return trace.String(), grants, err
			}
		default: // withdraw a queued job, or a no-op one
			q := queued()
			id := rng.Intn(len(jobs) + 1)
			fmt.Fprintf(&trace, " withdraw(%d)", id)
			q = slices.DeleteFunc(q, func(x int) bool { return x == id })
			if err := take(a.Withdraw(id), q, free); err != nil {
				return trace.String(), grants, err
			}
		}

		// Conservation.
		out := 0
		for _, n := range running {
			out += n
		}
		if a.Free() < 0 || a.Free()+out != capacity {
			return trace.String(), grants, fmt.Errorf("free %d + granted %d != capacity %d", a.Free(), out, capacity)
		}
		// Order and membership.
		q := queued()
		if policy == AdmitReject && len(q) > 0 {
			return trace.String(), grants, fmt.Errorf("reject policy holds a queue %v", q)
		}
		for i := 1; i < len(q); i++ {
			if !before(jobs[q[i-1]], jobs[q[i]]) {
				return trace.String(), grants, fmt.Errorf("queue %v out of %s order at %d", q, policy, i)
			}
		}
		for _, id := range q {
			if _, ok := running[id]; ok {
				return trace.String(), grants, fmt.Errorf("job %d both queued and running", id)
			}
		}
		// No startable head.
		if len(q) > 0 {
			head := jobs[q[0]]
			if head.need <= a.Free() || (policy == AdmitDegrade && a.Free() > 0) {
				return trace.String(), grants, fmt.Errorf("head job %d (need %d) stays queued with %d free", q[0], head.need, a.Free())
			}
		}
		if a.MaxQueued() < len(q) || a.Degraded() != degraded {
			return trace.String(), grants, fmt.Errorf("max queued %d with depth %d, %d degraded grants counted of %d",
				a.MaxQueued(), len(q), a.Degraded(), degraded)
		}
	}
	if q, d := queued(), a.Drain(); !slices.Equal(d, q) || len(a.queue) != 0 {
		return trace.String(), grants, fmt.Errorf("drain returned %v of queue %v, left %d", d, q, len(a.queue))
	}
	return trace.String(), grants, nil
}
