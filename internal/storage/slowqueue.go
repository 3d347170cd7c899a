package storage

import "fmt"

// SlowPolicy names what a publisher does when a subscriber's bounded
// queue is full. The choice trades the publisher's latency against the
// subscriber's completeness — see docs/STREAMING.md.
type SlowPolicy string

const (
	// DropOldest evicts the oldest queued message to make room for the
	// new one. The publisher never blocks and the subscriber always sees
	// the most recent Buffer messages — staleness is bounded, coverage
	// is not. This is the default, and the only policy safe on the
	// cluster write path without a timeout.
	DropOldest SlowPolicy = "drop-oldest"
	// Block makes the publisher wait for queue space up to
	// SubOptions.BlockTimeout — real backpressure, full coverage — and
	// detach the subscriber with ErrSlowConsumer when the wait runs out.
	Block SlowPolicy = "block"
	// Sample drops the incoming message when the queue is full: the
	// publisher never blocks and the subscriber sees an in-order
	// subsample of the stream (older queued messages are never
	// displaced, so what it sees is a prefix-preserving subsequence).
	Sample SlowPolicy = "sample"
)

// SlowPolicies lists the slow-consumer policies.
func SlowPolicies() []SlowPolicy { return []SlowPolicy{DropOldest, Block, Sample} }

// ValidateSlowPolicy checks a user-supplied policy name ("" means
// DropOldest).
func ValidateSlowPolicy(p string) error {
	switch SlowPolicy(p) {
	case "", DropOldest, Block, Sample:
		return nil
	}
	return fmt.Errorf("storage: unknown slow-consumer policy %q (have %v)", p, SlowPolicies())
}

// SlowQueue is the one full-queue rule, driven by Subscription (under
// its mutex, with channels) and by the DES in-situ queue in
// internal/iostrat (in event order, with futures). It owns the bounded
// FIFO, the policy on a full queue, Block's in-order parked list with
// admit-on-pop, drain-then-close and the dropped counter. It knows no
// clock, so a Block timeout is the driver's business. W is the driver's
// wake handle for a parked publisher; its zero value means "nothing to
// wake". Not safe for concurrent use.
type SlowQueue[T, W any] struct {
	buffer  int
	policy  SlowPolicy
	items   []T
	parked  []T // Block-policy items past a full queue, in order
	wakes   []W // parked[i]'s publisher
	closed  bool
	dropped uint64
}

// NewSlowQueue returns an empty queue of buffer (>= 1) items under a
// valid policy.
func NewSlowQueue[T, W any](buffer int, policy SlowPolicy) *SlowQueue[T, W] {
	return &SlowQueue[T, W]{buffer: buffer, policy: policy}
}

// Offer applies the full-queue rule to item. Under Block a full queue
// parks the item and returns park()'s non-zero handle: the publisher
// waits on it until a Pop admits the item or Close discards it. Every
// other outcome — queued, evicting or refused, or ignored on a closed
// queue — returns the zero W at once.
func (q *SlowQueue[T, W]) Offer(item T, park func() W) (wake W) {
	switch {
	case q.closed:
	case len(q.items) < q.buffer:
		q.items = append(q.items, item)
	case q.policy == Block:
		wake = park()
		q.parked, q.wakes = append(q.parked, item), append(q.wakes, wake)
	case q.policy == Sample:
		q.dropped++
	default: // DropOldest
		q.items = append(q.items[1:], item)
		q.dropped++
	}
	return wake
}

// Pop dequeues the oldest item (ok=false on an empty queue) and admits
// the oldest parked item into the freed slot, returning the handle of
// the publisher to wake (zero when nothing was parked).
func (q *SlowQueue[T, W]) Pop() (item T, wake W, ok bool) {
	if len(q.items) == 0 {
		return item, wake, false
	}
	item = q.items[0]
	q.items = q.items[1:]
	if len(q.parked) > 0 {
		q.items, wake = append(q.items, q.parked[0]), q.wakes[0]
		q.parked, q.wakes = q.parked[1:], q.wakes[1:]
	}
	return item, wake, true
}

// Close stops admitting: the queued items stay poppable, the parked
// ones are discarded, and their handles are returned for waking.
// Closing twice returns nothing the second time.
func (q *SlowQueue[T, W]) Close() []W {
	wakes := q.wakes
	q.closed, q.parked, q.wakes = true, nil, nil
	return wakes
}

// Closed reports whether Close has been called.
func (q *SlowQueue[T, W]) Closed() bool { return q.closed }

// Len returns the number of queued items.
func (q *SlowQueue[T, W]) Len() int { return len(q.items) }

// Dropped returns how many items the policy discarded (evicted under
// DropOldest, refused under Sample).
func (q *SlowQueue[T, W]) Dropped() uint64 { return q.dropped }
