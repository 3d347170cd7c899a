package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// AdmissionPolicy decides what a Service does with a tenant whose node
// quota exceeds the dedicated cores currently free.
type AdmissionPolicy string

const (
	// AdmitFIFO queues oversubscribed tenants in arrival order.
	AdmitFIFO AdmissionPolicy = "fifo"
	// AdmitDeadline queues oversubscribed tenants and dispatches the
	// highest-priority, earliest-deadline tenant first (EDF).
	AdmitDeadline AdmissionPolicy = "deadline"
	// AdmitReject refuses oversubscribed tenants outright.
	AdmitReject AdmissionPolicy = "reject"
	// AdmitDegrade shrinks an oversubscribed tenant's ask to whatever is
	// free right now — the paper's skip policy applied to admission:
	// run smaller (losing per-node throughput) rather than wait. A
	// tenant arriving when nothing is free still queues.
	AdmitDegrade AdmissionPolicy = "degrade"
)

// ValidateAdmissionPolicy rejects unknown policy names (flag parsing).
func ValidateAdmissionPolicy(p AdmissionPolicy) error {
	switch p {
	case AdmitFIFO, AdmitDeadline, AdmitReject, AdmitDegrade:
		return nil
	}
	return fmt.Errorf("cluster: unknown admission policy %q", p)
}

// Admission is the admission rule both faces drive: Service (jobs are
// *Tenant, guarded by Service.mu) and iostrat.RunService (jobs are
// indices, in event order). It knows no clock or goroutine and is not
// safe for concurrent use. It owns the free-node count; the queue in
// policy order (arrival, or for EDF priority desc, deadline asc with
// <= 0 as none, then arrival); the submit decision (start on the full
// ask if it fits, else reject, degrade to what is free, or queue);
// head-of-line dispatch; and the max-queue and degraded counters.
//
// A job that fits at Submit starts at once even when others queue:
// head-of-line blocking applies to dispatch only, where nothing
// overtakes a head that does not fit. Release and Withdraw return the
// grants to start, so both dispatch by construction; a grant the driver
// cannot start goes back through Release.
type Admission[J comparable] struct {
	policy    AdmissionPolicy
	free      int
	queue     []admitReq[J] // policy order; queue[0] is the head
	arrivals  int
	maxQueued int
	degraded  int
}

// admitReq is one queued job and the keys that order it.
type admitReq[J comparable] struct {
	job      J
	need     int
	priority int
	deadline float64 // +Inf when none
	arrival  int
}

// Grant tells the driver to start Job on Nodes nodes (fewer than its
// ask only under AdmitDegrade).
type Grant[J comparable] struct {
	Job   J
	Nodes int
}

// NewAdmission returns an admission core over capacity free nodes. The
// policy must be valid (see ValidateAdmissionPolicy).
func NewAdmission[J comparable](policy AdmissionPolicy, capacity int) *Admission[J] {
	return &Admission[J]{policy: policy, free: capacity}
}

// Submit decides a new job asking need nodes (1 <= need <= capacity).
// It returns the job's grant when it starts now; otherwise queued says
// whether it waits for a later Release or Withdraw to grant it, and
// neither means the policy rejected it.
func (a *Admission[J]) Submit(job J, need, priority int, deadline float64) (grants []Grant[J], queued bool) {
	req := admitReq[J]{job: job, need: need, priority: priority,
		deadline: deadline, arrival: a.arrivals}
	a.arrivals++
	if n := a.fit(need); n > 0 {
		return []Grant[J]{a.grant(req, n)}, false
	}
	if a.policy == AdmitReject {
		return nil, false
	}
	if req.deadline <= 0 {
		req.deadline = math.Inf(1)
	}
	i := sort.Search(len(a.queue), func(i int) bool { return a.before(req, a.queue[i]) })
	a.queue = slices.Insert(a.queue, i, req)
	a.maxQueued = max(a.maxQueued, len(a.queue))
	return nil, true
}

// Release returns nodes to the pool and dispatches the queue.
func (a *Admission[J]) Release(nodes int) []Grant[J] {
	a.free += nodes
	return a.dispatch()
}

// Withdraw removes a queued job (a no-op for any other) and dispatches
// the queue: the job may have been the head blocking the rest.
func (a *Admission[J]) Withdraw(job J) []Grant[J] {
	a.queue = slices.DeleteFunc(a.queue, func(r admitReq[J]) bool { return r.job == job })
	return a.dispatch()
}

// Drain empties the queue without granting and returns the jobs it
// held, head first.
func (a *Admission[J]) Drain() []J {
	jobs := make([]J, len(a.queue))
	for i, r := range a.queue {
		jobs[i] = r.job
	}
	a.queue = nil
	return jobs
}

// Free returns the nodes not granted to any job.
func (a *Admission[J]) Free() int { return a.free }

// MaxQueued returns the deepest the queue has been.
func (a *Admission[J]) MaxQueued() int { return a.maxQueued }

// Degraded returns how many grants were smaller than their ask.
func (a *Admission[J]) Degraded() int { return a.degraded }

// fit returns what a job asking need nodes is granted right now: its
// ask when that fits, whatever is free under AdmitDegrade, else 0.
func (a *Admission[J]) fit(need int) int {
	if need <= a.free {
		return need
	}
	if a.policy == AdmitDegrade {
		return a.free
	}
	return 0
}

// grant takes n nodes for req.
func (a *Admission[J]) grant(req admitReq[J], n int) Grant[J] {
	a.free -= n
	if n < req.need {
		a.degraded++
	}
	return Grant[J]{Job: req.job, Nodes: n}
}

// dispatch starts queued jobs from the head while the head fits.
func (a *Admission[J]) dispatch() (grants []Grant[J]) {
	for len(a.queue) > 0 {
		n := a.fit(a.queue[0].need)
		if n == 0 {
			break
		}
		grants = append(grants, a.grant(a.queue[0], n))
		a.queue = a.queue[1:]
	}
	return grants
}

// before reports whether x precedes y in the queue.
func (a *Admission[J]) before(x, y admitReq[J]) bool {
	if a.policy == AdmitDeadline {
		if x.priority != y.priority {
			return x.priority > y.priority
		}
		if x.deadline != y.deadline {
			return x.deadline < y.deadline
		}
	}
	return x.arrival < y.arrival
}
